// Command ppgnn-load is the open-loop load generator for ppgnn-lsp: it
// drives a fleet of client groups at a fixed arrival rate (Poisson or
// metronome), measures per-stage latency quantiles, classifies every
// failure into the closed error taxonomy, and — by default — checks
// every decrypted answer against a local plaintext engine built over the
// same dataset the server loaded.
//
// Usage:
//
//	ppgnn-load [flags]
//
//	-addr A       ppgnn-lsp address (default 127.0.0.1:9042)
//	-self-host    ignore -addr; start an in-process LSP on a loopback
//	              listener and load it (single-binary smoke runs)
//	-dataset F    point file the server loaded (default: the bundled
//	              Sequoia substitute) — the oracle must see the same data
//	-rate R       offered arrivals per second (default 40)
//	-arrival M    poisson | fixed (default poisson)
//	-warmup D     unscored warm-up window (default 2s)
//	-measure D    scored window (default 10s)
//	-drain D      grace for the in-flight tail after arrivals stop
//	              (default 30s)
//	-groups N     independent client groups; arrivals round-robin and
//	              queue per group (default 8)
//	-group-size N users per group (default 4)
//	-keybits N    Paillier modulus (default 256 — the harness measures
//	              the service, not the paper's cost model)
//	-k N          POIs per answer (default 4)
//	-seed N       drives keys, locations, arrivals, and backoff jitter
//	-timeout D    per-query end-to-end bound, retries included (30s)
//	-max-in-flight N  client-side concurrency cap; excess arrivals are
//	              dropped and counted (default 512)
//	-precompute N encryption-randomness factors pooled per group before
//	              the run (default 64)
//	-refill N     keep each group's randomness pool topped up to N by a
//	              background refiller for the whole run (default 0 = the
//	              one-shot -precompute fill only)
//	-coalesce     with -self-host, merge concurrent sessions' batch work
//	              on the in-process server (DESIGN.md §15)
//	-oracle       conformance-check every answer (default true; forces
//	              NoSanitize queries so answers are deterministic)
//	-out F        write the JSON report (the BENCH_load.json shape)
//	-slo-p95 D, -slo-p99 D, -slo-err F, -slo-qps-frac F
//	              objectives for the measure stage; violations (and any
//	              oracle mismatch, always) exit nonzero
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/load"
	"ppgnn/internal/obs"
	"ppgnn/internal/parallel"
	"ppgnn/internal/rtree"
	"ppgnn/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9042", "ppgnn-lsp address")
	selfHost := flag.Bool("self-host", false, "start an in-process LSP and load it (ignores -addr)")
	datasetPath := flag.String("dataset", "", "point file the server loaded (default: Sequoia substitute)")
	rate := flag.Float64("rate", 40, "offered arrivals per second")
	arrivalName := flag.String("arrival", "poisson", "arrival process: poisson|fixed")
	warmup := flag.Duration("warmup", 2*time.Second, "unscored warm-up window")
	measure := flag.Duration("measure", 10*time.Second, "scored window")
	drain := flag.Duration("drain", 30*time.Second, "grace for the in-flight tail")
	groups := flag.Int("groups", 8, "independent client groups")
	groupSize := flag.Int("group-size", 4, "users per group")
	keybits := flag.Int("keybits", 256, "Paillier modulus in bits")
	k := flag.Int("k", 4, "POIs per answer")
	seed := flag.Int64("seed", 1, "base RNG seed")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query end-to-end bound, retries included")
	maxInFlight := flag.Int("max-in-flight", 512, "client-side concurrency cap")
	precompute := flag.Int("precompute", 64, "randomness factors pooled per group before the run")
	refill := flag.Int("refill", 0, "background-refilled pool floor per group (0 = one-shot -precompute only)")
	coalesce := flag.Bool("coalesce", false, "with -self-host, coalesce concurrent sessions' batches on the in-process server")
	oracleOn := flag.Bool("oracle", true, "conformance-check every answer against the plaintext engine")
	out := flag.String("out", "", "write the JSON report here")
	sloP95 := flag.Duration("slo-p95", 0, "measure-stage p95 bound (0 = unchecked)")
	sloP99 := flag.Duration("slo-p99", 0, "measure-stage p99 bound (0 = unchecked)")
	sloErr := flag.Float64("slo-err", 1, "measure-stage max error rate (1 = unchecked)")
	sloQPSFrac := flag.Float64("slo-qps-frac", 0, "min achieved/offered qps fraction (0 = unchecked)")
	flag.Parse()

	arrival, err := load.ParseArrival(*arrivalName)
	if err != nil {
		fatal(err)
	}
	var items []rtree.Item
	if *datasetPath != "" {
		if items, err = dataset.LoadFile(*datasetPath); err != nil {
			fatal(err)
		}
	} else {
		items = dataset.Sequoia(dataset.DefaultSeed)
	}

	target := *addr
	if *selfHost {
		srv := transport.NewServer(core.NewLSP(items, geo.UnitRect))
		if *coalesce {
			co := parallel.NewCoalescer(0, parallel.CoalesceOptions{})
			defer co.Close()
			srv.Coalescer = co
		}
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		target = bound.String()
		log.Printf("ppgnn-load: self-hosting %d POIs on %s (coalesce=%v)", len(items), target, *coalesce)
	} else if *coalesce {
		fatal(fmt.Errorf("-coalesce configures the in-process server and needs -self-host; the daemon takes its own -coalesce flag"))
	}

	fc := load.FleetConfig{
		Addr:         target,
		Groups:       *groups,
		GroupSize:    *groupSize,
		KeyBits:      *keybits,
		K:            *k,
		Seed:         *seed,
		QueryTimeout: *timeout,
		Precompute:   *precompute,
		Refill:       *refill,
	}
	if *oracleOn {
		// The oracle is a local plaintext engine over the same dataset;
		// answers only match if the server loaded identical points.
		lsp := core.NewLSP(items, geo.UnitRect)
		fc.Oracle = func(q []geo.Point, kk int) []gnn.Result { return lsp.Search(q, kk, gnn.Sum) }
	}
	fleet, err := load.NewFleet(fc)
	if err != nil {
		fatal(err)
	}
	defer fleet.Close()

	d, err := load.NewDriver(load.Config{
		Rate:          *rate,
		Arrival:       arrival,
		Warmup:        *warmup,
		Measure:       *measure,
		Drain:         *drain,
		MaxInFlight:   *maxInFlight,
		Seed:          *seed,
		OracleChecked: fc.Oracle != nil,
		Obs:           obs.Default(),
		Logf:          log.Printf,
	}, fleet)
	if err != nil {
		fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		fatal(err)
	}

	for i := range rep.Stages {
		fmt.Println(rep.Stages[i].Summary())
	}
	fmt.Printf("run     arrivals=%d abandoned=%d peak-in-flight=%d sched-lag-p99=%.4fs oracle-mismatches=%d cores=%d\n",
		rep.Arrivals, rep.Abandoned, rep.PeakInFlight, rep.SchedLagP99, rep.Mismatches(), rep.Cores)

	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}

	slo := load.SLO{P95: *sloP95, P99: *sloP99, MaxErrorRate: *sloErr, MinThroughputFrac: *sloQPSFrac}
	if err := slo.Check(rep); err != nil {
		fatal(err)
	}
	fmt.Println("slo: PASS (" + slo.String() + ")")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppgnn-load:", err)
	os.Exit(1)
}
