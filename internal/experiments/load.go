package experiments

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/load"
	"ppgnn/internal/obs"
	"ppgnn/internal/parallel"
	"ppgnn/internal/transport"

	"context"
)

// LoadReport is the payload of BENCH_load.json: one or two open-loop
// passes (clean, and optionally faulted) of the sustained-traffic
// conformance harness against an in-process ppgnn-lsp over real TCP.
// Every decrypted answer in every pass is checked against the plaintext
// gnn oracle; a single mismatch fails the gate regardless of SLOs.
type LoadReport struct {
	KeyBits int        `json:"keybits"`
	Cores   int        `json:"cores"` // runtime.NumCPU, honest
	Passes  []LoadPass `json:"passes"`
	// Traces audits the server-side flight recorder after both passes:
	// every retained trace must carry only closed-enum attributes and
	// account for its measured wall time. Check enforces it.
	Traces *TraceAudit `json:"traces,omitempty"`
	// IncidentDump is the flight recorder's contents at the moment an
	// SLO check failed — the traces around the failure, preserved in the
	// report the way a production watchdog dump would be.
	IncidentDump *obs.TraceDump `json:"incident_dump,omitempty"`
	// Sustained is the steady-state throughput section (DESIGN.md §15):
	// coalescing-off vs coalescing-on passes with the client-side
	// refillers engaged, plus a byte-identity probe.
	Sustained *SustainedSection `json:"sustained,omitempty"`
}

// sustainedSpeedupFloor is the steady-state gate: with the coalescer on,
// achieved QPS must clear this multiple of the coalescing-off pass. Like
// the parallel and shard floors it only applies on ≥2 cores — coalescing
// buys wall-clock by sharing batch fan-out across sessions, which a
// single core cannot exhibit.
const sustainedSpeedupFloor = 1.3

// SustainedPass is one measured steady-state pass of the sustained
// section.
type SustainedPass struct {
	Name        string       `json:"name"` // coalesce_off | coalesce_on
	OfferedQPS  float64      `json:"offered_qps"`
	AchievedQPS float64      `json:"achieved_qps"`
	Mismatches  int64        `json:"mismatches"`
	Abandoned   int64        `json:"abandoned"`
	Report      *load.Report `json:"report"`
}

// SustainedSection compares steady-state achieved throughput with the
// cross-session coalescer off and on. Both passes run with background
// pool refillers and the shared constant cache engaged on the client
// fleet, so the only difference between them is server-side coalescing.
type SustainedSection struct {
	Rate   float64         `json:"rate"`
	Groups int             `json:"groups"`
	Cores  int             `json:"cores"` // runtime.NumCPU, honest
	Passes []SustainedPass `json:"passes"`
	// Speedup is coalesce_on achieved QPS over coalesce_off.
	Speedup float64 `json:"speedup"`
	// ByteIdentical records the in-gate probe: the same query replayed
	// concurrently through the coalesced LSP produced answers byte-equal
	// to the uncoalesced LSP's (the internal/parallel determinism
	// contract, re-verified at gate time).
	ByteIdentical bool `json:"byte_identical"`
}

// FloorSkipReason is non-empty when the sustained-throughput floor
// cannot apply on this machine. Check skips the floor then — loudly, by
// recording this exact string — and still enforces conformance,
// zero-abandonment, and byte-identity.
func (s *SustainedSection) FloorSkipReason() string {
	if s.Cores < 2 {
		return fmt.Sprintf("single core (cores=%d): the %.1f× sustained-throughput floor is SKIPPED — oracle conformance, zero-abandonment, and byte-identity checks only", s.Cores, sustainedSpeedupFloor)
	}
	return ""
}

// LoadPass is one driver run plus the verdict of its SLO.
type LoadPass struct {
	Name    string `json:"name"` // clean | faulted
	Faulted bool   `json:"faulted"`
	// SLO is the human rendering of the objective this pass was held to.
	SLO string `json:"slo"`
	// SLOViolation is empty on a passing run; otherwise every violated
	// objective, joined. Check refuses any report carrying one.
	SLOViolation string       `json:"slo_violation,omitempty"`
	Report       *load.Report `json:"report"`
}

// LoadGateOptions sizes a LoadGate run. The zero value is the CI smoke
// configuration: ~20 seconds of wall clock at a modest rate.
type LoadGateOptions struct {
	Rate                   float64 // offered QPS (default 40)
	Arrival                load.Arrival
	Warmup, Measure, Drain time.Duration // defaults 1s / 6s / 30s
	Groups, GroupSize      int           // default 6 groups of 3
	MaxInFlight            int
	// Faulted adds a second pass with seeded faultnet schedules — dial
	// drops, added latency, and mid-answer connection kills — injected on
	// the client links while the oracle check stays on.
	Faulted bool
	// SLO overrides the clean pass's objective (the faulted pass derives
	// a tolerant variant of it).
	SLO  *load.SLO
	Logf func(format string, args ...any)
	// Sustained appends the steady-state throughput section: two extra
	// measured passes at SustainedRate — coalescer off, then on — with
	// the fleet's background refillers and shared constant cache engaged
	// in both, plus a concurrent byte-identity probe. Check enforces the
	// sustained floor on ≥2 cores.
	Sustained bool
	// SustainedRate is the offered QPS of the sustained passes (default
	// 120, high enough that the coalescer's micro-batch window actually
	// fills with tasks from distinct sessions).
	SustainedRate float64
	// SustainedMeasure is the measured window of each sustained pass
	// (default: the gate's Measure).
	SustainedMeasure time.Duration
}

func (o LoadGateOptions) withDefaults() LoadGateOptions {
	if o.Rate <= 0 {
		o.Rate = 40
	}
	if o.Warmup <= 0 {
		o.Warmup = time.Second
	}
	if o.Measure <= 0 {
		o.Measure = 6 * time.Second
	}
	if o.Drain <= 0 {
		o.Drain = 30 * time.Second
	}
	if o.Groups <= 0 {
		o.Groups = 6
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 3
	}
	if o.SustainedRate <= 0 {
		o.SustainedRate = 120
	}
	if o.SustainedMeasure <= 0 {
		o.SustainedMeasure = o.Measure
	}
	return o
}

// gateFaults is the seeded per-group fault schedule of the faulted pass:
// a quarter of the fleet loses its first dials, a quarter has its first
// connection killed mid-answer (a non-retryable session loss, by the
// transport's at-most-once rule), a quarter runs over a slow link, and
// the rest stay clean. Deterministic in (seed, group).
func gateFaults(seed int64) func(group int) func(addr string) (net.Conn, error) {
	return func(group int) func(addr string) (net.Conn, error) {
		gs := seed + int64(group)
		switch group % 4 {
		case 0:
			return faultnet.Dialer(
				faultnet.Faults{FailDial: true},
				faultnet.Faults{FailDial: true},
			)
		case 1:
			return faultnet.Dialer(faultnet.Faults{Seed: gs, ReadResetAfter: 64})
		case 2:
			return faultnet.Dialer(
				faultnet.Faults{Seed: gs, Latency: 2 * time.Millisecond, MaxChunk: 512},
				faultnet.Faults{Seed: gs + 1, Latency: 2 * time.Millisecond, MaxChunk: 512},
			)
		default:
			return nil
		}
	}
}

// LoadGate is ROADMAP item 5's CI teeth: it starts an in-process LSP on
// a real TCP listener, builds a fleet of client groups, offers open-loop
// traffic, and holds the run to an SLO while conformance-checking every
// answer against the plaintext engine. With opts.Faulted it repeats the
// run under seeded faultnet schedules, where sessions may be lost to the
// taxonomy but never answered wrongly. The returned report is
// BENCH_load.json; call Check to enforce it.
func (c Config) LoadGate(opts LoadGateOptions) (*LoadReport, error) {
	c = c.Defaults()
	opts = opts.withDefaults()

	lsp := core.NewLSP(c.Items, c.Space)
	srv := transport.NewServer(lsp)
	// Isolated server registry: the trace audit below must see exactly
	// this run's traces, not whatever else the process recorded.
	reg := obs.NewRegistry()
	srv.Obs = reg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("load gate: %w", err)
	}
	defer srv.Close()
	oracle := func(q []geo.Point, k int) []gnn.Result { return lsp.Search(q, k, gnn.Sum) }

	cleanSLO := load.SLO{
		P95:               2 * time.Second,
		P99:               4 * time.Second,
		MaxErrorRate:      0,
		MinThroughputFrac: 0.9,
	}
	if opts.SLO != nil {
		cleanSLO = *opts.SLO
	}
	// Injected kills legitimately cost sessions and retries cost time;
	// the faulted pass relaxes rates and latency but still forbids
	// abandonment — and mismatches stay fatal everywhere.
	faultedSLO := cleanSLO
	faultedSLO.MaxErrorRate = maxf(cleanSLO.MaxErrorRate, 0.25)
	faultedSLO.MinThroughputFrac = 0.5
	faultedSLO.P95, faultedSLO.P99 = 2*cleanSLO.P95, 2*cleanSLO.P99

	rep := &LoadReport{KeyBits: c.KeyBits, Cores: runtime.NumCPU()}
	passes := []struct {
		name    string
		faulted bool
		slo     load.SLO
	}{{"clean", false, cleanSLO}}
	if opts.Faulted {
		passes = append(passes, struct {
			name    string
			faulted bool
			slo     load.SLO
		}{"faulted", true, faultedSLO})
	}

	for i, p := range passes {
		fc := load.FleetConfig{
			Addr:      addr.String(),
			Groups:    opts.Groups,
			GroupSize: opts.GroupSize,
			KeyBits:   c.KeyBits,
			Seed:      c.Seed + int64(i)*101,
			Oracle:    oracle,
		}
		if p.faulted {
			fc.DialFunc = gateFaults(c.Seed)
		}
		fleet, err := load.NewFleet(fc)
		if err != nil {
			return nil, fmt.Errorf("load gate: %s pass: %w", p.name, err)
		}
		d, err := load.NewDriver(load.Config{
			Rate:          opts.Rate,
			Arrival:       opts.Arrival,
			Warmup:        opts.Warmup,
			Measure:       opts.Measure,
			Drain:         opts.Drain,
			MaxInFlight:   opts.MaxInFlight,
			Seed:          c.Seed + int64(i),
			OracleChecked: true,
			Obs:           obs.NewRegistry(), // isolated per pass
			Logf:          opts.Logf,
		}, fleet)
		if err != nil {
			fleet.Close()
			return nil, fmt.Errorf("load gate: %s pass: %w", p.name, err)
		}
		run, err := d.Run(context.Background())
		fleet.Close()
		if err != nil {
			return nil, fmt.Errorf("load gate: %s pass: %w", p.name, err)
		}
		pass := LoadPass{Name: p.name, Faulted: p.faulted, SLO: p.slo.String(), Report: run}
		if err := p.slo.Check(run); err != nil {
			pass.SLOViolation = err.Error()
			// A failed SLO dumps the flight recorder: the traces behind
			// the violated percentiles ride along in the report.
			rep.IncidentDump = reg.Recorder().Dump("slo_failed")
		}
		rep.Passes = append(rep.Passes, pass)
	}
	if opts.Sustained {
		sus, err := c.sustainedSection(lsp, oracle, reg, opts)
		if err != nil {
			return nil, fmt.Errorf("load gate: sustained: %w", err)
		}
		rep.Sustained = sus
	}
	rep.Traces = auditTraces(reg.Recorder())
	return rep, nil
}

// sustainedSection runs the steady-state comparison. Each pass gets its
// own server over the shared gate LSP — the coalescer is fixed at server
// construction, never flipped on a live server — and both report traces
// into the gate registry so the trace audit covers sustained traffic
// too. The fleet runs with background refillers and the shared constant
// cache in both passes, so coalescing is the only variable.
func (c Config) sustainedSection(lsp *core.LSP, oracle load.Oracle, reg *obs.Registry, opts LoadGateOptions) (*SustainedSection, error) {
	sec := &SustainedSection{
		Rate:   opts.SustainedRate,
		Groups: opts.Groups,
		Cores:  runtime.NumCPU(),
	}
	ident, err := coalesceByteIdentity(lsp, c.KeyBits, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("byte-identity probe: %w", err)
	}
	sec.ByteIdentical = ident

	for i, on := range []bool{false, true} {
		name := "coalesce_off"
		var co *parallel.Coalescer
		srv := transport.NewServer(lsp)
		srv.Obs = reg
		if on {
			name = "coalesce_on"
			co = parallel.NewCoalescer(0, parallel.CoalesceOptions{})
			srv.Coalescer = co
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", name, err)
		}
		run, runErr := func() (*load.Report, error) {
			fleet, err := load.NewFleet(load.FleetConfig{
				Addr:      addr.String(),
				Groups:    opts.Groups,
				GroupSize: opts.GroupSize,
				KeyBits:   c.KeyBits,
				Seed:      c.Seed + 1000 + int64(i)*101,
				Oracle:    oracle,
				Refill:    64,
			})
			if err != nil {
				return nil, err
			}
			defer fleet.Close()
			d, err := load.NewDriver(load.Config{
				Rate:          opts.SustainedRate,
				Arrival:       opts.Arrival,
				Warmup:        opts.Warmup,
				Measure:       opts.SustainedMeasure,
				Drain:         opts.Drain,
				MaxInFlight:   opts.MaxInFlight,
				Seed:          c.Seed + 7 + int64(i),
				OracleChecked: true,
				Obs:           obs.NewRegistry(), // isolated per pass
				Logf:          opts.Logf,
			}, fleet)
			if err != nil {
				return nil, err
			}
			return d.Run(context.Background())
		}()
		srv.Close()
		if co != nil {
			co.Close()
		}
		if runErr != nil {
			return nil, fmt.Errorf("%s pass: %w", name, runErr)
		}
		sp := SustainedPass{
			Name:       name,
			Mismatches: run.Mismatches(),
			Abandoned:  run.Abandoned,
			Report:     run,
		}
		if m := run.Stage("measure"); m != nil {
			sp.OfferedQPS, sp.AchievedQPS = m.OfferedQPS, m.AchievedQPS
		}
		sec.Passes = append(sec.Passes, sp)
	}
	if off := sec.Passes[0].AchievedQPS; off > 0 {
		sec.Speedup = sec.Passes[1].AchievedQPS / off
	}
	return sec, nil
}

// coalesceByteIdentity replays one fixed query concurrently through a
// coalesced wrap of the gate LSP and compares every encrypted answer
// byte for byte against the uncoalesced LSP's — the acceptance property
// that makes coalescing invisible to clients, re-checked in the gate
// binary itself rather than trusted from the unit suite.
func coalesceByteIdentity(lsp *core.LSP, keyBits int, seed int64) (bool, error) {
	rng := rand.New(rand.NewSource(seed + 9001))
	p := core.DefaultParams(3)
	p.KeyBits = keyBits
	p.NoSanitize = true
	locs := make([]geo.Point, p.N)
	for i := range locs {
		locs[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	g, err := core.NewGroup(p, locs, rng)
	if err != nil {
		return false, err
	}
	q, lmsgs, err := g.BuildQuery(nil)
	if err != nil {
		return false, err
	}
	want, err := lsp.Process(q, lmsgs, nil)
	if err != nil {
		return false, err
	}
	co := parallel.NewCoalescer(2, parallel.CoalesceOptions{})
	defer co.Close()
	clsp := lsp.WithCoalescer(co)
	const replays = 4
	got := make([]*core.AnswerMsg, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = clsp.Process(q, lmsgs, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < replays; i++ {
		if errs[i] != nil {
			return false, errs[i]
		}
		if len(got[i].Cts) != len(want.Cts) {
			return false, nil
		}
		for j := range want.Cts {
			if got[i].Cts[j].Cmp(want.Cts[j]) != 0 {
				return false, nil
			}
		}
	}
	return true, nil
}

// Check enforces the gate. Any recorded SLO violation or oracle mismatch
// fails outright. A baseline (the committed BENCH_load.json) is only
// comparable on matching core counts; there, the clean pass's measured
// p95 may not blow out to more than 2.5× the baseline's and its achieved
// throughput may not collapse below half.
func (r *LoadReport) Check(baseline *LoadReport) error {
	if len(r.Passes) == 0 {
		return fmt.Errorf("load gate: report has no passes")
	}
	for _, p := range r.Passes {
		if n := p.Report.Mismatches(); n > 0 {
			return fmt.Errorf("load gate: %s pass: %d answer(s) disagreed with the plaintext oracle", p.Name, n)
		}
		if p.SLOViolation != "" {
			return fmt.Errorf("load gate: %s pass failed its SLO: %s", p.Name, p.SLOViolation)
		}
	}
	if err := r.Sustained.check(); err != nil {
		return err
	}
	if err := r.Traces.Check("load gate"); err != nil {
		return err
	}
	if baseline == nil || baseline.Cores != r.Cores {
		return nil
	}
	base := baseline.pass("clean")
	cur := r.pass("clean")
	if base == nil || cur == nil {
		return nil
	}
	bm, cm := base.Report.Stage("measure"), cur.Report.Stage("measure")
	if bm == nil || cm == nil {
		return nil
	}
	if bm.LatencyP95 > 0 && cm.LatencyP95 > 2.5*bm.LatencyP95 {
		return fmt.Errorf("load gate: clean p95 %.4fs regressed >2.5x vs baseline %.4fs (cores=%d)",
			cm.LatencyP95, bm.LatencyP95, r.Cores)
	}
	// Throughput compares as achieved/offered fractions, so a smoke run
	// at a lower offered rate still gates against a full-rate baseline.
	if bm.OfferedQPS > 0 && cm.OfferedQPS > 0 {
		baseFrac := bm.AchievedQPS / bm.OfferedQPS
		curFrac := cm.AchievedQPS / cm.OfferedQPS
		if baseFrac > 0 && curFrac < 0.5*baseFrac {
			return fmt.Errorf("load gate: clean achieved/offered qps %.2f collapsed below half of baseline %.2f (cores=%d)",
				curFrac, baseFrac, r.Cores)
		}
	}
	return nil
}

// check enforces the sustained section. Conformance is unconditional:
// zero oracle mismatches, zero abandoned sessions in both passes, and a
// passing byte-identity probe. The ≥1.3× throughput floor applies only
// when the floor can physically show up — on ≥2 cores; on one core the
// skip is recorded loudly via FloorSkipReason. Nil receiver (no
// sustained run) checks nothing.
func (s *SustainedSection) check() error {
	if s == nil {
		return nil
	}
	if len(s.Passes) != 2 {
		return fmt.Errorf("load gate: sustained section has %d passes, want coalesce_off and coalesce_on", len(s.Passes))
	}
	for _, p := range s.Passes {
		if p.Mismatches > 0 {
			return fmt.Errorf("load gate: sustained %s pass: %d answer(s) disagreed with the plaintext oracle", p.Name, p.Mismatches)
		}
		if p.Abandoned > 0 {
			return fmt.Errorf("load gate: sustained %s pass abandoned %d session(s)", p.Name, p.Abandoned)
		}
	}
	if !s.ByteIdentical {
		return fmt.Errorf("load gate: coalesced answers were not byte-identical to uncoalesced")
	}
	if reason := s.FloorSkipReason(); reason != "" {
		// Loud skip: the reason string is part of the committed report.
		return nil
	}
	if s.Speedup < sustainedSpeedupFloor {
		return fmt.Errorf("load gate: sustained speedup %.2f× below the %.1f× floor (coalesce_on %.2f qps vs coalesce_off %.2f qps, cores=%d)",
			s.Speedup, sustainedSpeedupFloor, s.Passes[1].AchievedQPS, s.Passes[0].AchievedQPS, s.Cores)
	}
	return nil
}

func (r *LoadReport) pass(name string) *LoadPass {
	for i := range r.Passes {
		if r.Passes[i].Name == name {
			return &r.Passes[i]
		}
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
