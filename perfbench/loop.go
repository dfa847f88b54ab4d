package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/encode"
	"ppgnn/internal/obs"
)

// outcome is one query's result. The clock starts at the scheduled send
// (open loop) or at the send (closed loop) and stops when the answer is
// decrypted; the oracle check runs off the clock, and a query that fails
// it counts as failed.
type outcome struct {
	latency time.Duration
	err     error
	pois    int // POIs in the decrypted answer
	// Traced queries also time their three client-visible stages.
	traced              bool
	build, rpc, decrypt time.Duration
	q                   *core.QueryMsg
	locs                []*core.LocationMsg
}

// recorder is a core.Service that passes a query through and keeps the
// messages, so the oracle and the ledger can see what the LSP saw.
type recorder struct {
	inner core.Service
	q     *core.QueryMsg
	locs  []*core.LocationMsg
}

func (r *recorder) Process(q *core.QueryMsg, locs []*core.LocationMsg) (*core.AnswerMsg, error) {
	r.q, r.locs = q, locs
	return r.inner.Process(q, locs)
}

// query runs arrival i on client c: the group's real locations and
// randomness derive from the workload seed and i alone, so a seed fixes
// every input whatever order the arrivals run in. Untraced queries call
// Group.Run; traced ones call its stages one at a time.
func (e *env) query(c *client, i int, start time.Time, traced bool) outcome {
	rng := rand.New(rand.NewSource(mix(e.seed, int64(i))))
	real := randomLocations(rng, c.g.Params.N)
	c.g.Locations = real
	c.g.Rng = rng
	var (
		o       outcome
		records []encode.Record
		err     error
	)
	if traced {
		records, err = e.tracedRun(c, &o)
	} else {
		rec := &recorder{inner: c.svc}
		var res *core.Result
		if res, err = c.g.Run(rec, c.meter); err == nil {
			records = res.Records
		}
		o.q, o.locs = rec.q, rec.locs
	}
	o.latency = time.Since(start)
	if err == nil {
		err = e.oracle.check(real, o.q, o.locs, records)
	}
	o.err, o.pois, o.traced = err, len(records), traced
	if !traced {
		o.q, o.locs = nil, nil // only the ledger needs them, and it replays traced queries
	}
	return o
}

// tracedRun is Group.Run split at its stage boundaries, with the same
// byte accounting.
func (e *env) tracedRun(c *client, o *outcome) ([]encode.Record, error) {
	t := time.Now()
	q, locs, err := c.g.BuildQuery(c.meter)
	o.build = time.Since(t)
	if err != nil {
		return nil, err
	}
	o.q, o.locs = q, locs
	c.meter.AddBytes(cost.UserToLSP, len(q.Marshal()))
	for _, lm := range locs {
		c.meter.AddBytes(cost.UserToLSP, len(lm.Marshal()))
	}
	t = time.Now()
	ans, err := c.svc.Process(q, locs)
	o.rpc = time.Since(t)
	if err != nil {
		return nil, err
	}
	c.meter.AddBytes(cost.LSPToUser, len(ans.Marshal()))
	t = time.Now()
	records, err := c.g.DecryptAnswer(ans, c.meter)
	o.decrypt = time.Since(t)
	return records, err
}

// phase is one measured stretch of queries.
type phase struct {
	outcomes []outcome
	win      window
	lags     []time.Duration // open loop: how late each arrival was sent
	peak     int64           // most queries in flight at once
	ledger   []ledgerSample
	// client and LSP cost, and the obs registry, over the phase
	clientCost, lspCost cost.Snapshot
	before, after       *obs.Snapshot
}

// ledgerEvery and ledgerMax pick which traced queries the ledger
// replays: every ledgerEvery-th traced query, at most ledgerMax per run.
const (
	ledgerEvery = 4
	ledgerMax   = 8
)

// hardStop bounds a phase's length past its window, so a run always ends
// well inside its time limit even on a machine far slower than expected.
const hardStop = 90 * time.Second

// measure runs queries for at least window and at least minN queries.
// With trace set every other query is traced, so traced and untraced
// queries share the window's host speed and state.
func (e *env) measure(window time.Duration, minN int, trace bool) (*phase, error) {
	ph := &phase{}
	c0, l0 := e.clientSnapshot(), e.lspCost.Snapshot()
	ph.before = e.reg.Snapshot()
	end := meterWindow()
	var err error
	if e.spec.open {
		err = e.openLoop(ph, window, minN, trace)
	} else {
		err = e.closedLoop(ph, window, minN, trace)
	}
	ph.win = end()
	ph.clientCost = diff(e.clientSnapshot(), c0)
	ph.lspCost = diff(e.lspCost.Snapshot(), l0)
	ph.after = e.reg.Snapshot()
	return ph, err
}

func (e *env) clientSnapshot() cost.Snapshot {
	var s cost.Snapshot
	for _, c := range e.clients {
		s = s.Add(c.meter.Snapshot())
	}
	return s
}

// diff returns a − b for the fields the benchmark reads.
func diff(a, b cost.Snapshot) cost.Snapshot {
	d := cost.Snapshot{
		UserToLSPBytes:  a.UserToLSPBytes - b.UserToLSPBytes,
		LSPToUserBytes:  a.LSPToUserBytes - b.LSPToUserBytes,
		IntraGroupBytes: a.IntraGroupBytes - b.IntraGroupBytes,
		UserTime:        a.UserTime - b.UserTime,
		LSPTime:         a.LSPTime - b.LSPTime,
		Ops:             map[string]int64{},
	}
	for k, v := range a.Ops {
		d.Ops[k] = v - b.Ops[k]
	}
	return d
}

// closedLoop runs one group's queries back to back. Workloads with an
// update batch run it before every query, never beside one. The ledger
// replays a sampled traced query right after it, before the next
// updates change the index.
func (e *env) closedLoop(ph *phase, window time.Duration, minN int, trace bool) error {
	c := e.clients[0]
	start := time.Now()
	for n := 0; ; n++ {
		el := time.Since(start)
		if (el >= window && n >= minN) || el >= window+hardStop {
			break
		}
		if e.spec.updating {
			if err := e.updateBatch(); err != nil {
				return err
			}
		}
		traced := trace && n%2 == 1
		o := e.query(c, n, time.Now(), traced)
		ph.outcomes = append(ph.outcomes, o)
		if traced && o.err == nil && (n/2)%ledgerEvery == 0 && len(ph.ledger) < ledgerMax {
			s, err := replay(ledgerLSP(e.lsp), o.q, o.locs, e.lsp.Rerandomize, e.lsp.RerandPools)
			if err != nil {
				return err
			}
			ph.ledger = append(ph.ledger, s)
		}
	}
	ph.peak = 1
	return nil
}

// arrivals is the number of arrivals an open loop at rate sends in a
// window: the window's worth, and at least minN.
func arrivals(rate float64, window time.Duration, minN int) int {
	return max(minN, int(math.Ceil(rate*window.Seconds())))
}

// openLoop sends arrivals at fixed intervals of 1/rate, whether or not
// earlier queries have finished. Arrival j goes to group j mod G; each
// group runs its queries in arrival order, one at a time, so a stall
// shows as queueing in the latency of later arrivals. The schedule is
// periodic rather than Poisson: at 100 arrivals a run, a Poisson trace's
// p90 is set by the drain of one or two bursts, i.e. by the host's speed
// over a few seconds (see README.md). The ledger replays sampled traced
// queries after the window.
func (e *env) openLoop(ph *phase, window time.Duration, minN int, trace bool) error {
	sched := make([]time.Duration, arrivals(e.spec.rate, window, minN))
	for j := range sched {
		sched[j] = time.Duration(float64(j) / e.spec.rate * float64(time.Second))
	}
	ph.outcomes = make([]outcome, len(sched))
	ph.lags = make([]time.Duration, len(sched))
	queues := make([]chan int, len(e.clients))
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	base := time.Now()
	deadline := base.Add(window + hardStop)
	for g, c := range e.clients {
		queues[g] = make(chan int, len(sched)) // room for the whole schedule
		wg.Add(1)
		go func(c *client, q chan int) {
			defer wg.Done()
			for j := range q {
				if time.Now().After(deadline) {
					ph.outcomes[j] = outcome{err: fmt.Errorf("abandoned past the run's deadline")}
				} else {
					ph.outcomes[j] = e.query(c, j, base.Add(sched[j]), trace && j%2 == 1)
				}
				inflight.Add(-1)
			}
		}(c, queues[g])
	}
	for j, at := range sched {
		if wait := time.Until(base.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		ph.lags[j] = time.Since(base.Add(at))
		ph.peak = max(ph.peak, inflight.Add(1))
		queues[j%len(queues)] <- j
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if trace {
		for j := 1; j < len(sched) && len(ph.ledger) < ledgerMax; j += 2 * ledgerEvery {
			o := ph.outcomes[j]
			if !o.traced || o.err != nil {
				continue
			}
			s, err := replay(ledgerLSP(e.lsp), o.q, o.locs, e.lsp.Rerandomize, e.lsp.RerandPools)
			if err != nil {
				return err
			}
			ph.ledger = append(ph.ledger, s)
		}
	}
	return nil
}
