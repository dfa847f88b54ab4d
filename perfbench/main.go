// Command perfbench is the PPGNN benchmark. It sets up one workload,
// measures it for a given time, checks every answer against a plaintext
// oracle, and prints one JSON result line. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it reports the per-layer metrics,
// timed from outside the program around calls into each layer's public
// functions. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload paper-sanitized --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ppgnn/internal/obs"
)

// lagBound is the open-loop honesty bound: a run whose p90 send lag
// exceeds it measured a generator that could not keep its schedule, and
// is marked invalid. It is 15% of service-opt's gap between arrivals;
// with both CPUs busy, a woken generator can wait out a 10 ms scheduler
// time slice or two.
const lagBound = 50 * time.Millisecond

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: paper-sanitized, service-opt or churn-1m")
	seed := flag.Int64("seed", 1, "workload seed: fixes every generated input")
	seconds := flag.Float64("seconds", 10, "measure window in seconds (runs also collect at least 100 queries, 150 on paper-sanitized)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool) error {
	sp, err := specByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds %v must be positive", seconds)
	}
	window := time.Duration(seconds * float64(time.Second))
	// The open loop's clients precompute randomness for every arrival the
	// run sends.
	expected := 0
	if sp.open {
		expected = arrivals(sp.rate, window, sp.queries)
	}

	var (
		e          *env
		setupTimes []float64
	)
	for r := 0; r < sp.setupReps; r++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t := time.Now()
		if e, err = setup(sp, seed, expected); err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}
	defer e.close()

	printHeader(e, seconds, trace)

	if err := e.timeUpdates(); err != nil {
		return err
	}
	runtime.GC() // start the window without the set-up's garbage
	// Warm up right before the window: warmupQueries checked queries per
	// group, not scored. The first two queries after set-up and the
	// collection ran up to 2× slow in most runs, and would take two of the
	// ten places beyond the p90.
	for r := 0; r < warmupQueries; r++ {
		for gi, c := range e.clients {
			if o := e.query(c, streamWarmup+r*len(e.clients)+gi, time.Now(), false); o.err != nil {
				return fmt.Errorf("warmup query: %w", o.err)
			}
		}
	}
	if err := e.settle(); err != nil {
		return err
	}

	res := result{Correct: true}
	invalid := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}

	var rss *rssSampler
	if !trace {
		rss = startRSS() // the window's resident set, for peak_rss_mb
	}
	ph, err := e.measure(window, sp.queries, trace)
	if err != nil {
		return err
	}
	if e.spec.open {
		lag, err := lagP90(ph)
		if err != nil {
			return err
		}
		if lag > lagBound {
			invalid("invalid run: generator p90 send lag %v exceeds %v", lag, lagBound)
		}
	}
	var values map[string]float64
	if trace {
		values, err = e.perLayer(ph, invalid)
	} else {
		values, err = e.endToEnd(ph, setupTimes, rss)
	}
	if err != nil {
		return err
	}
	for _, o := range ph.outcomes {
		res.Attempted++
		if o.err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintln(os.Stderr, "perfbench: query failed:", o.err)
			}
		}
	}
	if res.Failed > 0 {
		invalid("%d of %d queries failed", res.Failed, res.Attempted)
	}
	table := endToEndMetrics
	if trace {
		table = perLayerMetrics
	}
	if res.Metrics, err = collect(table, values); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printHeader records the conditions a result was measured under.
func printHeader(e *env, seconds float64, trace bool) {
	c := e.clients[0]
	rate := 0.0
	loop := "closed"
	if e.spec.open {
		rate, loop = e.spec.rate, "open"
	}
	h := map[string]any{
		"workload":     e.spec.name,
		"why":          e.spec.why,
		"seed":         e.seed,
		"cores":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"key_bits":     c.g.Params.KeyBits,
		"variant":      c.g.Params.Variant.String(),
		"sanitize":     !c.g.Params.NoSanitize,
		"pois":         len(e.pois.items),
		"n":            c.g.Params.N,
		"d":            c.g.Params.D,
		"delta":        c.g.Params.Delta,
		"delta_prime":  c.g.DeltaPrime(),
		"k":            c.g.Params.K,
		"theta0":       c.g.Params.Theta0,
		"loop":         loop,
		"offered_rate": rate,
		"groups":       len(e.clients),
		"lsp_workers":  e.lsp.Workers,
		"seconds":      seconds,
		"trace":        trace,
	}
	b, _ := json.Marshal(map[string]any{"header": h})
	fmt.Println(string(b))
}

// endToEnd reports what a user of the service sees.
func (e *env) endToEnd(ph *phase, setupTimes []float64, rss *rssSampler) (map[string]float64, error) {
	var lat, pois []float64
	ok := 0
	for _, o := range ph.outcomes {
		if o.err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		ok++
		lat = append(lat, o.latency.Seconds())
		pois = append(pois, float64(o.pois))
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	var upd []float64
	for _, b := range e.batches {
		upd = append(upd, b.Seconds())
	}
	u50, err := percentile(upd, 0.5)
	if err != nil {
		return nil, err
	}
	u90, err := percentile(upd, 0.9)
	if err != nil {
		return nil, err
	}
	peak, err := rss.peak()
	if err != nil {
		return nil, err
	}
	sort.Float64s(setupTimes)
	cc := ph.clientCost
	return map[string]float64{
		"setup_s":               setupTimes[len(setupTimes)/2],
		"query_p50_s":           p50,
		"query_p90_s":           p90,
		"cpu_ms_per_query":      perQuery(ms(ph.win.cpu), ok),
		"ok_share":              float64(ok) / float64(len(ph.outcomes)),
		"up_bytes_per_query":    perQuery(float64(cc.UserToLSPBytes), ok),
		"down_bytes_per_query":  perQuery(float64(cc.LSPToUserBytes), ok),
		"intra_bytes_per_query": perQuery(float64(cc.IntraGroupBytes), ok),
		"pois_returned_mean":    mean(pois),
		"update_p50_s":          u50,
		"update_p90_s":          u90,
		"peak_rss_mb":           peak / 1e6,
	}, nil
}

// perLayer reports the per-layer metrics of a traced window: the traced
// queries give the stage times and the ledger, the untraced ones the
// baseline for the tracing overhead.
func (e *env) perLayer(ph *phase, invalid func(string, ...any)) (map[string]float64, error) {
	var build, rpc, dec, latU, latT []float64
	for _, o := range ph.outcomes {
		switch {
		case o.err != nil:
		case !o.traced:
			latU = append(latU, o.latency.Seconds())
		default:
			latT = append(latT, o.latency.Seconds())
			build = append(build, ms(o.build))
			rpc = append(rpc, ms(o.rpc))
			dec = append(dec, ms(o.decrypt))
		}
	}
	ok := len(latU) + len(latT)
	calls := len(e.batches) * updateBatchSize

	var l ledgerSample // sums over the replayed queries
	for _, s := range ph.ledger {
		if !s.byteIdentity {
			invalid("ledger replay is not byte-identical to LSP.Process")
		}
		l.candidates += s.candidates
		l.search += s.search
		l.sanitize += s.sanitize
		l.encode += s.encode
		l.selection += s.selection
		l.rerand += s.rerand
		l.scanned += s.scanned
		l.samples += s.samples
		l.truncated += s.truncated
		l.nCandidates += s.nCandidates
		l.rows += s.rows
		l.selectTerms += s.selectTerms
		l.process += s.process
	}
	nl := len(ph.ledger)
	if nl == 0 {
		return nil, fmt.Errorf("ledger: no query was replayed")
	}
	var lag time.Duration
	if e.spec.open {
		var err error
		if lag, err = lagP90(ph); err != nil {
			return nil, err
		}
	}
	cc := ph.clientCost // both kinds of query: per-query counts do not depend on tracing
	rpcMean := mean(rpc)
	return map[string]float64{
		"core.build_ms":            mean(build),
		"paillier.enc_online":      perQuery(float64(cc.Ops["enc1"]+cc.Ops["enc2"]), ok),
		"paillier.enc_pooled":      perQuery(float64(cc.Ops["enc1-pooled"]+cc.Ops["enc2-pooled"]), ok),
		"core.decrypt_ms":          mean(dec),
		"paillier.select_ms":       ms(l.selection) / float64(nl),
		"paillier.select_terms":    float64(l.selectTerms) / float64(nl),
		"paillier.rerand_ms":       ms(l.rerand) / float64(nl),
		"sanitize.ms":              ms(l.sanitize) / float64(nl),
		"sanitize.samples":         float64(l.samples) / float64(nl),
		"sanitize.truncated_share": float64(l.truncated) / float64(l.nCandidates),
		"gnn.search_ms":            ms(l.search) / float64(nl),
		"gnn.scanned_pois":         float64(l.scanned) / float64(nl),
		"rtree.insert_us":          perQuery(us(e.insertTotal), calls),
		"rtree.delete_us":          perQuery(us(e.deleteTotal), calls),
		"partition.candidates_ms":  ms(l.candidates) / float64(nl),
		"encode.ms":                ms(l.encode) / float64(nl),
		"encode.rows":              float64(l.rows) / float64(nl),
		"core.lsp_process_ms":      ms(l.process) / float64(nl),
		"ledger.closure_ratio":     float64(l.stageSum()) / float64(l.process),
		"transport.rpc_ms":         rpcMean,
		"transport.overhead_ms":    rpcMean - perQuery(ms(ph.lspCost.LSPTime), ok),
		"transport.retries":        float64(counterDelta(ph.before, ph.after, "transport_retries_total", nil)),
		"svc.busy_sheds": float64(counterDelta(ph.before, ph.after, "svc_admissions_total",
			func(l map[string]string) bool { return l["admission"] != "ok" })),
		"load.sched_lag_p90_ms":      ms(lag),
		"load.peak_in_flight":        float64(ph.peak),
		"runtime.alloc_mb_per_query": perQuery(ph.win.stats.allocBytes/1e6, ok),
		"runtime.gc_cpu_share":       ph.win.gcShare(),
		"trace.overhead_share":       mean(latT)/mean(latU) - 1,
	}, nil
}

// lagP90 is the p90 of the open-loop send lag.
func lagP90(ph *phase) (time.Duration, error) {
	var lags []float64
	for _, l := range ph.lags {
		lags = append(lags, l.Seconds())
	}
	p, err := percentile(lags, 0.9)
	return time.Duration(p * float64(time.Second)), err
}

// counterDelta sums the growth of a counter's series whose labels pass
// keep (all series when keep is nil).
func counterDelta(before, after *obs.Snapshot, name string, keep func(map[string]string) bool) int64 {
	sum := func(s *obs.Snapshot) int64 {
		var t int64
		for _, c := range s.Counters {
			if c.Name == name && (keep == nil || keep(c.Labels)) {
				t += c.Value
			}
		}
		return t
	}
	return sum(after) - sum(before)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
