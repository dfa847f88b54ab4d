// Command ppgnn-experiments regenerates the tables and figures of the
// paper's evaluation (Section 8). Each figure is printed as text tables
// with the same x-axes and series as the paper.
//
// Usage:
//
//	ppgnn-experiments [flags]
//
//	-exp all|fig5|fig6|fig7|fig8|table2|table3|table4|mobile
//	     which experiment to run (default all)
//	-queries N   queries averaged per data point (default 3; paper: 500)
//	-keybits N   Paillier modulus size (default 1024, as in the paper)
//	-quick       endpoint-only sweeps with small defaults (smoke test)
//	-dataset F   load a real point file instead of the Sequoia substitute
//	-seed N      base RNG seed
//	-snapshot    instead of the paper experiments, run the seeded n=5 t=3
//	             faultnet soak and write its telemetry (per-phase p50/p95,
//	             retry counters, Precomputer hit rate) to -snapshot-out
//	-snapshot-out F  output file for -snapshot (default BENCH_obs.json)
//	-latency D   faultnet latency injected on every soak link (default 5ms)
//	-parallel-gate   measure the LSP query phase serial vs parallel, assert
//	             the answers are byte-identical, and write the timing report
//	             to -gate-out; exits nonzero if the speedup is below the CI
//	             floor or regresses against -gate-baseline
//	-gate-out F      output file for -parallel-gate (default BENCH_parallel.json)
//	-gate-baseline F committed baseline report to gate against (optional)
//	-gate-reps N     repetitions per width, best-of (default 3)
//	-kernel-gate     measure the homomorphic primitives (⊙, ⨂, threshold
//	             combine) and one end-to-end query with the modmath kernel
//	             on vs off on a single thread, assert byte-identical exact
//	             outputs and plaintext-identical short-rand answers, and
//	             write the report to -kernel-out; exits nonzero below the
//	             CI floors or on regression against -kernel-baseline
//	-kernel-out F      output file for -kernel-gate (default BENCH_kernel.json)
//	-kernel-baseline F committed baseline report to gate against (optional)
//	-load-gate   run the open-loop sustained-traffic conformance gate: an
//	             in-process LSP on real TCP, a fleet of client groups at a
//	             fixed arrival rate, every decrypted answer checked against
//	             the plaintext engine — once clean and once under seeded
//	             faultnet faults — and write the report to -load-out; exits
//	             nonzero on any SLO violation, oracle mismatch, or
//	             regression against -load-baseline
//	-load-out F      output file for -load-gate (default BENCH_load.json)
//	-load-baseline F committed baseline report to gate against (optional)
//	-load-rate R     offered arrivals/second (default 40)
//	-load-warmup D   unscored warm-up window (default 1s)
//	-load-measure D  scored window per pass (default 6s)
//	-load-faulted    include the faulted pass (default true)
//	-sustained       append the steady-state throughput section: a
//	                 coalesce-off and a coalesce-on pass with refilled
//	                 randomness pools, a byte-identity probe, and the ≥1.3× floor on ≥2
//	                 cores (loudly skipped on one core)
//	-sustained-rate R     offered arrivals/second per sustained pass (120)
//	-sustained-measure D  scored window per sustained pass (0 = -load-measure)
//	-chaos-gate  run the multi-tenant lifecycle soak: two tenants under
//	             concurrent open-loop traffic (one behind seeded dial-kill
//	             and slow-link faults, one with a quota of a single session
//	             so the admission gate provably sheds) while a reload storm
//	             rewrites the service config mid-traffic — one write
//	             deliberately corrupt. Every answer is oracle-checked;
//	             exits nonzero on any mismatch, lost session, epoch leak,
//	             or an admission shed not classified retryable
//	-chaos-out F     output file for -chaos-gate (default BENCH_chaos.json)
//	-chaos-rate R    offered arrivals/second per tenant (default 25)
//	-chaos-measure D scored window (default 4s)
//	-chaos-reloads N valid reloads pushed mid-traffic (default 3)
//	-shard-gate  build the single-tree and sharded+grid POI indexes at
//	             10k/100k/1M synthetic POIs, assert every candidate kGNN
//	             answer identical across paths (and vs the brute-force
//	             oracle at 10k) and the encrypted answers byte-identical,
//	             and write candidate-work and wall-time curves to
//	             -shard-out; exits nonzero if pruning is not sub-linear,
//	             the parallel sweep misses its speedup floor (skipped
//	             loudly on one core), or the report regresses against
//	             -shard-baseline
//	-shard-out F      output file for -shard-gate (default BENCH_shard.json)
//	-shard-baseline F committed baseline report to gate against (optional)
//	-shard-count N    shard count K for -shard-gate (default 8)
//
// Absolute timings differ from the paper's C++/GMP testbed; the shapes
// (who wins, growth rates, crossovers) are the reproduction target. See
// EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ppgnn/internal/dataset"
	"ppgnn/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig5|fig6|fig7|fig8|table2|table3|table4|mobile")
	queries := flag.Int("queries", 3, "queries averaged per data point")
	keybits := flag.Int("keybits", 1024, "Paillier modulus size in bits")
	quick := flag.Bool("quick", false, "endpoint-only sweeps (smoke test)")
	datasetPath := flag.String("dataset", "", "optional point file (e.g. the real Sequoia data)")
	seed := flag.Int64("seed", 42, "base RNG seed")
	snapshot := flag.Bool("snapshot", false, "run the n=5 t=3 faultnet soak and write its telemetry JSON")
	snapshotOut := flag.String("snapshot-out", "BENCH_obs.json", "output file for -snapshot")
	latency := flag.Duration("latency", 5*time.Millisecond, "faultnet latency per soak link (-snapshot)")
	parallelGate := flag.Bool("parallel-gate", false, "time the LSP query phase serial vs parallel and write the gate report")
	gateOut := flag.String("gate-out", "BENCH_parallel.json", "output file for -parallel-gate")
	gateBaseline := flag.String("gate-baseline", "", "baseline report to gate -parallel-gate against (optional)")
	gateReps := flag.Int("gate-reps", 3, "repetitions per width for -parallel-gate, best-of")
	kernelGate := flag.Bool("kernel-gate", false, "time the homomorphic primitives with the modmath kernel on vs off and write the gate report")
	kernelOut := flag.String("kernel-out", "BENCH_kernel.json", "output file for -kernel-gate")
	kernelBaseline := flag.String("kernel-baseline", "", "baseline report to gate -kernel-gate against (optional)")
	loadGate := flag.Bool("load-gate", false, "run the open-loop sustained-traffic conformance gate and write the report")
	loadOut := flag.String("load-out", "BENCH_load.json", "output file for -load-gate")
	loadBaseline := flag.String("load-baseline", "", "baseline report to gate -load-gate against (optional)")
	loadRate := flag.Float64("load-rate", 40, "offered arrivals/second for -load-gate")
	loadWarmup := flag.Duration("load-warmup", time.Second, "unscored warm-up window for -load-gate")
	loadMeasure := flag.Duration("load-measure", 6*time.Second, "scored window per -load-gate pass")
	loadFaulted := flag.Bool("load-faulted", true, "include the seeded-fault pass in -load-gate")
	sustained := flag.Bool("sustained", false, "append the steady-state section to -load-gate: coalesce-off vs coalesce-on passes with refilled pools")
	sustainedRate := flag.Float64("sustained-rate", 120, "offered arrivals/second for the -sustained passes")
	sustainedMeasure := flag.Duration("sustained-measure", 0, "scored window per -sustained pass (0 = -load-measure)")
	chaosGate := flag.Bool("chaos-gate", false, "run the multi-tenant lifecycle soak (reload storm + admission sheds + faults) and write the report")
	chaosOut := flag.String("chaos-out", "BENCH_chaos.json", "output file for -chaos-gate")
	chaosRate := flag.Float64("chaos-rate", 25, "offered arrivals/second per tenant for -chaos-gate")
	chaosMeasure := flag.Duration("chaos-measure", 4*time.Second, "scored window for -chaos-gate")
	chaosReloads := flag.Int("chaos-reloads", 3, "valid config reloads pushed mid-traffic by -chaos-gate")
	shardGate := flag.Bool("shard-gate", false, "measure the sharded+grid POI index vs the single tree across database sizes and write the gate report")
	shardOut := flag.String("shard-out", "BENCH_shard.json", "output file for -shard-gate")
	shardBaseline := flag.String("shard-baseline", "", "baseline report to gate -shard-gate against (optional)")
	shardCount := flag.Int("shard-count", 8, "shard count K for -shard-gate")
	flag.Parse()

	cfg := experiments.Config{
		Queries: *queries,
		KeyBits: *keybits,
		Seed:    *seed,
		Quick:   *quick,
	}
	if *datasetPath != "" {
		items, err := dataset.LoadFile(*datasetPath)
		if err != nil {
			fatal(err)
		}
		cfg.Items = items
	}

	if *parallelGate {
		start := time.Now()
		report, err := cfg.ParallelGate(0, *gateReps)
		if err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*gateOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("parallel gate: keybits=%d δ'=%d workers=%d cores=%d reps=%d\n",
			report.KeyBits, report.DeltaPrime, report.Workers, report.Cores, report.Reps)
		fmt.Printf("  serial %v/op, parallel %v/op, speedup %.2fx (answers byte-identical), report in %s (%v)\n",
			time.Duration(report.SerialNsOp).Round(time.Microsecond),
			time.Duration(report.ParallelNsOp).Round(time.Microsecond),
			report.Speedup, *gateOut, time.Since(start).Round(time.Millisecond))
		var baseline *experiments.ParallelReport
		if *gateBaseline != "" {
			raw, err := os.ReadFile(*gateBaseline)
			if err != nil {
				fatal(err)
			}
			baseline = new(experiments.ParallelReport)
			if err := json.Unmarshal(raw, baseline); err != nil {
				fatal(fmt.Errorf("parsing %s: %w", *gateBaseline, err))
			}
			fmt.Printf("  baseline: serial %v/op, parallel %v/op, speedup %.2fx, cores=%d\n",
				time.Duration(baseline.SerialNsOp).Round(time.Microsecond),
				time.Duration(baseline.ParallelNsOp).Round(time.Microsecond),
				baseline.Speedup, baseline.Cores)
		}
		if err := report.Check(baseline); err != nil {
			fatal(err)
		}
		if reason := report.FloorSkipReason(); reason != "" {
			fmt.Printf("  gate: PASS with a caveat — %s\n", reason)
		} else {
			fmt.Println("  gate: PASS")
		}
		return
	}

	if *kernelGate {
		start := time.Now()
		report, err := cfg.KernelGate(*gateReps)
		if err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*kernelOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("kernel gate: keybits=%d δ'=%d cores=%d reps=%d short-rand=%d bits\n",
			report.KeyBits, report.DeltaPrime, report.Cores, report.Reps, report.ShortRandBits)
		micro := func(name string, m experiments.KernelMicro) {
			fmt.Printf("  %-12s ref %v/op, kernel %v/op, speedup %.2fx\n", name,
				time.Duration(m.RefNsOp).Round(time.Microsecond),
				time.Duration(m.KernelNsOp).Round(time.Microsecond), m.Speedup)
		}
		micro("dot (⊙)", report.Dot)
		micro("mat (⨂)", report.Mat)
		micro("combine", report.Combine)
		micro("end-to-end", report.E2E)
		fmt.Printf("  exact outputs byte-identical, short-rand answer plaintext-identical, report in %s (%v)\n",
			*kernelOut, time.Since(start).Round(time.Millisecond))
		var baseline *experiments.KernelReport
		if *kernelBaseline != "" {
			raw, err := os.ReadFile(*kernelBaseline)
			if err != nil {
				fatal(err)
			}
			baseline = new(experiments.KernelReport)
			if err := json.Unmarshal(raw, baseline); err != nil {
				fatal(fmt.Errorf("parsing %s: %w", *kernelBaseline, err))
			}
			fmt.Printf("  baseline: ⊙ %.2fx, end-to-end %.2fx, cores=%d\n",
				baseline.Dot.Speedup, baseline.E2E.Speedup, baseline.Cores)
		}
		if err := report.Check(baseline); err != nil {
			fatal(err)
		}
		fmt.Println("  gate: PASS")
		return
	}

	if *loadGate {
		// The load gate measures the service under sustained traffic, not
		// the paper's cost model; unless -keybits was set explicitly it
		// runs at 256 bits so a CI smoke pass stays ~20s.
		gateCfg := cfg
		keybitsSet := false
		flag.Visit(func(f *flag.Flag) { keybitsSet = keybitsSet || f.Name == "keybits" })
		if !keybitsSet {
			gateCfg.KeyBits = 256
		}
		start := time.Now()
		report, err := gateCfg.LoadGate(experiments.LoadGateOptions{
			Rate:             *loadRate,
			Warmup:           *loadWarmup,
			Measure:          *loadMeasure,
			Faulted:          *loadFaulted,
			Sustained:        *sustained,
			SustainedRate:    *sustainedRate,
			SustainedMeasure: *sustainedMeasure,
			Logf:             func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		})
		if err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*loadOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("load gate: keybits=%d cores=%d rate=%.3g/s measure=%v (%v total)\n",
			report.KeyBits, report.Cores, *loadRate, *loadMeasure, time.Since(start).Round(time.Millisecond))
		for _, p := range report.Passes {
			m := p.Report.Stage("measure")
			fmt.Printf("  %-7s %s\n          mismatches=%d abandoned=%d slo{%s}\n",
				p.Name, m.Summary(), p.Report.Mismatches(), p.Report.Abandoned, p.SLO)
			if p.SLOViolation != "" {
				fmt.Printf("          VIOLATION: %s\n", p.SLOViolation)
			}
		}
		if s := report.Sustained; s != nil {
			fmt.Printf("  sustained: rate=%.3g/s groups=%d byte-identical=%v\n", s.Rate, s.Groups, s.ByteIdentical)
			for _, p := range s.Passes {
				fmt.Printf("    %-12s achieved=%.2f/s offered=%.3g/s mismatches=%d abandoned=%d\n",
					p.Name, p.AchievedQPS, p.OfferedQPS, p.Mismatches, p.Abandoned)
			}
			if reason := s.FloorSkipReason(); reason != "" {
				fmt.Printf("    speedup=%.2fx — %s\n", s.Speedup, reason)
			} else {
				fmt.Printf("    speedup=%.2fx (floor 1.3x on %d cores)\n", s.Speedup, s.Cores)
			}
		}
		var baseline *experiments.LoadReport
		if *loadBaseline != "" {
			raw, err := os.ReadFile(*loadBaseline)
			if err != nil {
				fatal(err)
			}
			baseline = new(experiments.LoadReport)
			if err := json.Unmarshal(raw, baseline); err != nil {
				fatal(fmt.Errorf("parsing %s: %w", *loadBaseline, err))
			}
			if bm := baseline.Passes[0].Report.Stage("measure"); bm != nil {
				fmt.Printf("  baseline: clean p95=%.4fs achieved=%.2f/s cores=%d\n",
					bm.LatencyP95, bm.AchievedQPS, baseline.Cores)
			}
		}
		if err := report.Check(baseline); err != nil {
			fatal(err)
		}
		fmt.Println("  gate: PASS (every answer matched the plaintext oracle)")
		return
	}

	if *chaosGate {
		// Like -load-gate, the chaos gate measures the lifecycle layer,
		// not the cost model: default to 256-bit keys unless overridden.
		gateCfg := cfg
		keybitsSet := false
		flag.Visit(func(f *flag.Flag) { keybitsSet = keybitsSet || f.Name == "keybits" })
		if !keybitsSet {
			gateCfg.KeyBits = 256
		}
		start := time.Now()
		report, err := gateCfg.ChaosGate(experiments.ChaosGateOptions{
			Rate:    *chaosRate,
			Measure: *chaosMeasure,
			Reloads: *chaosReloads,
			Logf:    func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		})
		if err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*chaosOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("chaos gate: keybits=%d cores=%d rate=%.3g/s/tenant measure=%v (%v total)\n",
			report.KeyBits, report.Cores, *chaosRate, *chaosMeasure, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  epochs=%d applied=%d rejected=%d watchdog=%d live=%d state=%s quota-sheds=%d\n",
			report.Epochs, report.AppliedReloads, report.RejectedReloads,
			report.WatchdogTrips, report.LiveEpochs, report.FinalState, report.QuotaSheds)
		for _, t := range report.Tenants {
			if m := t.Report.Stage("measure"); m != nil {
				fmt.Printf("  %-6s faulted=%-5v %s\n         mismatches=%d abandoned=%d busy=%d\n",
					t.Tenant, t.Faulted, m.Summary(), t.Report.Mismatches(),
					t.Report.Abandoned, m.Outcomes["busy"])
			}
		}
		if err := report.Check(); err != nil {
			fatal(err)
		}
		fmt.Println("  gate: PASS (oracle clean across every reload epoch)")
		return
	}

	if *shardGate {
		// The shard gate measures index layouts, not the cost model; the
		// crypto runs only as the byte-identity check, so unless -keybits
		// was set explicitly it runs at 256 bits to keep CI fast.
		gateCfg := cfg
		keybitsSet := false
		flag.Visit(func(f *flag.Flag) { keybitsSet = keybitsSet || f.Name == "keybits" })
		if !keybitsSet {
			gateCfg.KeyBits = 256
		}
		start := time.Now()
		report, err := gateCfg.ShardGate(*shardCount, *gateReps, nil)
		if err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*shardOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("shard gate: keybits=%d δ'=%d k=%d shards=%d workers=%d cores=%d reps=%d (%v total)\n",
			report.KeyBits, report.DeltaPrime, report.K, report.Shards,
			report.Workers, report.Cores, report.Reps, time.Since(start).Round(time.Millisecond))
		for _, pt := range report.Sizes {
			oracle := ""
			if pt.OracleChecked {
				oracle = ", oracle-checked"
			}
			fmt.Printf("  %8d POIs: scanned single=%d sharded=%d, sweep single %v sharded %v (answers byte-identical%s)\n",
				pt.POIs, pt.ScannedSingle, pt.ScannedShard,
				time.Duration(pt.SweepSingleNs).Round(time.Microsecond),
				time.Duration(pt.SweepShardNs).Round(time.Microsecond), oracle)
		}
		fmt.Printf("  sweep speedup %.2fx at the largest size, report in %s\n", report.SweepSpeedup, *shardOut)
		var baseline *experiments.ShardReport
		if *shardBaseline != "" {
			raw, err := os.ReadFile(*shardBaseline)
			if err != nil {
				fatal(err)
			}
			baseline = new(experiments.ShardReport)
			if err := json.Unmarshal(raw, baseline); err != nil {
				fatal(fmt.Errorf("parsing %s: %w", *shardBaseline, err))
			}
			fmt.Printf("  baseline: speedup %.2fx, cores=%d\n", baseline.SweepSpeedup, baseline.Cores)
		}
		if err := report.Check(baseline); err != nil {
			fatal(err)
		}
		if reason := report.FloorSkipReason(); reason != "" {
			fmt.Printf("  gate: PASS with a caveat — %s\n", reason)
		} else {
			fmt.Println("  gate: PASS")
		}
		return
	}

	if *snapshot {
		start := time.Now()
		report, err := cfg.ObsSnapshot(*latency)
		if err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*snapshotOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("obs soak: %d/%d queries ok in %v (latency %v), report in %s\n",
			report.OK, report.Queries, time.Since(start).Round(time.Millisecond), *latency, *snapshotOut)
		for _, h := range report.Phases {
			fmt.Printf("  phase %-9s outcome %-8s n=%-4d p50=%8.4fs p95=%8.4fs\n",
				h.Labels["phase"], h.Labels["outcome"], h.Count, h.P50, h.P95)
		}
		fmt.Printf("  precompute pool hit rate %.2f, transport retries %d, dropouts %d\n",
			report.PoolHitRate, report.Retries, report.Dropouts)
		return
	}

	type job struct {
		name string
		run  func() error
	}
	printTables := func(fn func() ([]*experiments.Table, error)) func() error {
		return func() error {
			tables, err := fn()
			if err != nil {
				return err
			}
			for _, t := range tables {
				fmt.Println(t.Format())
			}
			return nil
		}
	}
	jobs := []job{
		{"table3", func() error { fmt.Println(cfg.Table3()); return nil }},
		{"table4", func() error { fmt.Println(experiments.Table4()); return nil }},
		{"table2", func() error {
			out, err := cfg.Table2()
			if err != nil {
				return err
			}
			fmt.Println(out)
			return nil
		}},
		{"mobile", func() error {
			out, err := cfg.Mobile()
			if err != nil {
				return err
			}
			fmt.Println(out)
			return nil
		}},
		{"fig5", printTables(cfg.Fig5)},
		{"fig6", printTables(cfg.Fig6)},
		{"fig7", printTables(cfg.Fig7)},
		{"fig8", printTables(cfg.Fig8)},
	}

	ran := false
	for _, j := range jobs {
		if *exp != "all" && *exp != j.name {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("=== %s ===\n", j.name)
		if err := j.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", j.name, err))
		}
		fmt.Printf("[%s completed in %v]\n\n", j.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if kg, err := cfg.KeygenCost(); err == nil {
		fmt.Printf("(one-time %d-bit key generation: %v — excluded from per-query user cost)\n",
			cfg.Defaults().KeyBits, kg.Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppgnn-experiments:", err)
	os.Exit(1)
}
