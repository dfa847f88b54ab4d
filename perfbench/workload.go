package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/obs"
	"ppgnn/internal/paillier"
	"ppgnn/internal/rtree"
	"ppgnn/internal/svc"
	"ppgnn/internal/transport"
)

// spec defines one workload. Every workload runs the paper's defaults
// n=4, d=25, δ=100 (δ'=101), k=8, F=sum and θ0=0.05.
type spec struct {
	name     string
	why      string
	keyBits  int
	variant  core.Variant
	sanitize bool
	pois     int
	// open selects an open loop at rate arrivals per second over nproc
	// client groups; otherwise one group runs a closed loop.
	open bool
	rate float64
	// service routes queries through svc.Service behind a loopback
	// transport.Server; tcp routes them to a bare transport.Server;
	// neither calls the LSP in process through core.LocalService.
	service, tcp bool
	// updating runs an update batch (see updateBatch) before every
	// query. Other workloads time timedBatches batches before the measure
	// window instead, so every workload reports update latency on its
	// own index.
	updating bool
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median.
	setupReps int
	// queries is the fewest queries a run measures, at least minSamples.
	// paper-sanitized measures more: its p90 spread most from run to run.
	queries int
}

// updateBatchSize is the number of POI replacements in one update
// batch. Workloads that do not update during the window run warmBatches
// untimed batches, then time timedBatches batches with updatePause
// between them.
const (
	updateBatchSize = 32
	warmBatches     = 125
	timedBatches    = minSamples
	updatePause     = 20 * time.Millisecond
)

// serviceRate is service-opt's fixed offered rate: 3/s, at least a quarter below
// the knee of the seed's capacity on a 2-core machine (see README.md).
const serviceRate = 3.0

var specs = []spec{
	{
		name: "paper-sanitized", why: "sanitizer, kGNN and online client encryption dominate; selection is ~5%",
		keyBits: 1024, variant: core.VariantPPGNN, sanitize: true, pois: dataset.SequoiaSize,
		tcp: true, setupReps: 5, queries: 150,
	},
	{
		name: "service-opt", why: "transport, admission, queueing, layered selection, rerandomization pools and degree-2 decryption; no sanitizer",
		keyBits: 1024, variant: core.VariantOPT, pois: dataset.SequoiaSize,
		open: true, rate: serviceRate, service: true, setupReps: 3, queries: minSamples,
	},
	{
		name: "churn-1m", why: "kGNN over 1M POIs dominates and updates sit beside reads, so a faster index that slows updates shows",
		keyBits: 512, variant: core.VariantPPGNN, pois: 1_000_000,
		updating: true, setupReps: 3, queries: minSamples,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// client is one group of users: its protocol state, its connection to
// the LSP and its cost meter.
type client struct {
	g     *core.Group
	svc   core.Service
	meter *cost.Meter
}

// env is one set-up instance of a workload.
type env struct {
	spec  spec
	seed  int64
	nproc int

	clients []*client
	lsp     *core.LSP   // the serving LSP: updates and ledger replays go here
	lspCost *cost.Meter // the LSP side's computation time
	reg     *obs.Registry
	pois    *poiSet
	oracle  *oracle
	closers []func()

	updRng                   *rand.Rand
	nextID                   int64
	batches                  []time.Duration // each update batch's time
	insertTotal, deleteTotal time.Duration   // over every call of the batches
}

// setup builds the dataset, the index, the server side, the client
// groups and their keys, and, for the open loop, the clients'
// precomputed randomness for expected queries.
func setup(sp spec, seed int64, expected int) (*env, error) {
	e := &env{
		spec: sp, seed: seed, nproc: runtime.NumCPU(),
		lspCost: &cost.Meter{}, reg: obs.NewRegistry(),
		updRng: rand.New(rand.NewSource(mix(seed, streamUpdates))),
		nextID: 1 << 40,
	}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	// At SequoiaSize this is the Sequoia substitute, dataset.Sequoia.
	items := dataset.Synthetic(dataset.DefaultSeed, sp.pois)
	e.pois = newPOISet(items)

	var addr string
	switch {
	case sp.service:
		cfg := &svc.Config{Tenants: []svc.TenantConfig{{
			ID: transport.DefaultTenant, Synthetic: sp.pois, Seed: dataset.DefaultSeed,
			MaxSessions: 64, Rerandomize: true,
		}}}
		service, err := svc.New(cfg, svc.Options{Workers: e.nproc, Obs: e.reg})
		if err != nil {
			return nil, fmt.Errorf("setup: service: %w", err)
		}
		e.closers = append(e.closers, service.Close)
		grant, err := service.Admit(transport.DefaultTenant)
		if err != nil {
			return nil, fmt.Errorf("setup: admitting the probe session: %w", err)
		}
		e.lsp = grant.LSP
		grant.Release()
		srv := transport.NewServer(nil)
		srv.Admitter = service
		srv.OnSessionPanic = service.OnSessionPanic
		if addr, err = e.listen(srv); err != nil {
			return nil, err
		}
	default:
		e.lsp = core.NewLSP(items, geo.UnitRect)
		e.lsp.Workers = e.nproc
		e.lsp.SanitizeSeed = seed
		if sp.tcp {
			var err error
			if addr, err = e.listen(transport.NewServer(e.lsp)); err != nil {
				return nil, err
			}
		}
	}
	e.oracle = &oracle{pois: e.pois, space: geo.UnitRect, sanitizeSeed: e.lsp.SanitizeSeed}

	groups := 1
	if sp.open {
		groups = e.nproc
	}
	for gi := 0; gi < groups; gi++ {
		p := core.DefaultParams(4)
		p.KeyBits = sp.keyBits
		p.Variant = sp.variant
		p.NoSanitize = !sp.sanitize
		rng := rand.New(rand.NewSource(mix(seed, streamGroups+int64(gi))))
		g, err := core.NewGroup(p, randomLocations(rng, p.N), rng)
		if err != nil {
			return nil, fmt.Errorf("setup: group %d: %w", gi, err)
		}
		c := &client{g: g, meter: &cost.Meter{}}
		if sp.open {
			// Group.Precompute fills the ε1 and ε2 pools with the same
			// count. It is sized by the ε2 indicator (ω per query): ε2
			// factors cost ~9× an ε1 factor at 1024 bits, and covering the
			// ε1 indicator (⌈δ'/ω⌉ per query) too would double set-up, so
			// about half of each ε1 indicator is encrypted online.
			perGroup := (expected+groups-1)/groups + warmupQueries
			count := perGroup * core.OptimalOmega(g.DeltaPrime())
			if _, err := g.Precompute(count); err != nil {
				return nil, fmt.Errorf("setup: precomputing group %d: %w", gi, err)
			}
		}
		switch {
		case addr != "":
			pool := transport.NewPool(addr)
			pool.Size = 1
			pool.QueryTimeout = time.Minute
			pool.Seed = seed + int64(gi)
			pool.Obs = e.reg
			e.closers = append(e.closers, func() { pool.Close() })
			c.svc = pool
		default:
			c.svc = core.LocalService{LSP: e.lsp, Meter: e.lspCost}
		}
		e.clients = append(e.clients, c)
	}
	ok = true
	return e, nil
}

func (e *env) listen(srv *transport.Server) (string, error) {
	srv.Meter = e.lspCost
	srv.Obs = e.reg
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("setup: listening: %w", err)
	}
	// Servers close first: pools and the service close after them.
	e.closers = append([]func(){func() { srv.Close() }}, e.closers...)
	return a.String(), nil
}

// close releases the servers, pools and service in order.
func (e *env) close() {
	for _, c := range e.closers {
		c()
	}
	e.closers = nil
}

// Random streams besides arrival i's, which is stream i. All derive
// from the workload seed.
const (
	streamUpdates = -1
	streamGroups  = -1 << 20 // + group index
	streamWarmup  = -2 << 20 // + warm-up round × groups + group index
)

// warmupQueries is the number of unscored queries each group runs
// before the window.
const warmupQueries = 2

// mix derives the seed of one random stream from the workload seed.
func mix(seed, i int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x)
}

// randomLocations draws n user locations uniformly over the unit square,
// as the paper's experiments do.
func randomLocations(rng *rand.Rand, n int) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return out
}

// settle waits until the serving LSP's rerandomization pools, which the
// warm-up queries created, stop growing, so the window does not open on
// their initial fill.
func (e *env) settle() error {
	if e.lsp.RerandPools == nil {
		return nil
	}
	var pools []*paillier.Precomputer
	for _, c := range e.clients {
		degree := 1
		if c.g.Params.Variant == core.VariantOPT {
			degree = 2
		}
		pre, err := e.lsp.RerandPools.For(&c.g.Key.PublicKey, degree)
		if err != nil {
			return fmt.Errorf("settle: %w", err)
		}
		pools = append(pools, pre)
	}
	last, still := -1, 0
	for deadline := time.Now().Add(30 * time.Second); still < 3 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		n := 0
		for _, p := range pools {
			n += p.Size()
		}
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	return nil
}

// timeUpdates times timedBatches update batches on workloads that do
// not update during the window. It runs before the window, so query
// garbage and its collection stay out of the update timings, and after
// warmBatches untimed batches, past the bulk-load transient: rtree.Bulk
// packs nodes full, so the first few thousand inserts split a node
// almost every time, and timing that decay made the p90 swing from run
// to run. A pause between timed batches spreads them over a few
// seconds, so one slow stretch of the host does not set them all.
func (e *env) timeUpdates() error {
	if e.spec.updating {
		return nil
	}
	for b := 0; b < warmBatches; b++ {
		if err := e.updateBatch(); err != nil {
			return err
		}
	}
	e.resetUpdates()
	for b := 0; b < timedBatches; b++ {
		if err := e.updateBatch(); err != nil {
			return err
		}
		time.Sleep(updatePause)
	}
	return nil
}

// updateBatch runs one batch of updateBatchSize POI replacements: each
// deletes a random current POI and inserts a fresh uniform one, so the
// database keeps its size. The batch is one update_p50_s sample; a
// replacement is too short and, on a freshly bulk-loaded R-tree, too
// bimodal (a node split or none) to give steady percentiles alone. The
// oracle's POI set mirrors every replacement. Updates must not overlap
// queries: the R-tree has no lock, so Insert racing Process is unsafe.
func (e *env) updateBatch() error {
	var batch time.Duration
	for j := 0; j < updateBatchSize; j++ {
		i := e.updRng.Intn(len(e.pois.items))
		old := e.pois.items[i]
		it := rtree.Item{ID: e.nextID, P: geo.Point{X: e.updRng.Float64(), Y: e.updRng.Float64()}}
		e.nextID++
		t := time.Now()
		found := e.lsp.Delete(old)
		d := time.Since(t)
		t = time.Now()
		e.lsp.Insert(it)
		in := time.Since(t)
		if !found {
			return fmt.Errorf("update: LSP.Delete did not find POI %d", old.ID)
		}
		e.deleteTotal += d
		e.insertTotal += in
		batch += d + in
		e.pois.remove(i)
		e.pois.add(it)
	}
	e.batches = append(e.batches, batch)
	return nil
}

// resetUpdates forgets the update timings so far.
func (e *env) resetUpdates() {
	e.batches, e.insertTotal, e.deleteTotal = nil, 0, 0
}
