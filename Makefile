GO ?= go

.PHONY: all build vet test test-procs race fuzz bench-gate bench-kernel bench-snapshot bench-load load-smoke sustained-gate chaos-gate svc-smoke metrics-smoke shard-gate clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...
	$(MAKE) test-procs

# The GOMAXPROCS lane: the packages whose hot paths fan out or share
# state across goroutines, at 2 and 4 Ps, so a single-core runner still
# schedules goroutines on several Ps; plus the MaxConns shed path ten
# times over. The rest of ./internal/transport stays out until its
# release-after-reply ordering is fixed for traces: the server ends a
# session's trace after the reply, and TestTracePropagationClientToServer
# fails there at GOMAXPROCS=2.
PROCS_PKGS = ./internal/sanitize ./internal/paillier ./internal/core ./internal/geo
test-procs:
	for p in 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count 1 $(PROCS_PKGS) || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count 10 -run '^TestMaxConnsShedding$$' ./internal/transport || exit 1; \
	done

# The whole module under the race detector — the batch crypto layer runs
# a 64-goroutine key-sharing hammer, internal/parallel a cancellation
# leak check, internal/obs the registry hammer.
race:
	$(GO) test -race ./...

# Short burst of every fuzz target (15s each by default; FUZZTIME=1m
# for longer local runs).
fuzz:
	./scripts/fuzz-pass.sh ./internal/core ./internal/wire ./internal/modmath ./internal/svc ./internal/shard ./internal/parallel ./internal/sanitize

# The CI benchmark-regression gate, runnable locally: the serial vs
# parallel pipeline benchmarks, then the LSP query-phase speedup gate
# against the committed baseline. Refresh the baseline by copying
# BENCH_parallel.ci.json over BENCH_parallel.json on representative
# hardware.
bench-gate:
	$(GO) test -run '^$$' -bench 'Paillier|LSP|Pipeline' -benchtime 1x -count 3 .
	$(GO) run ./cmd/ppgnn-experiments -parallel-gate -gate-reps 3 \
		-gate-baseline BENCH_parallel.json -gate-out BENCH_parallel.ci.json

# The modular-exponentiation kernel gate: Straus multi-exp on vs off for
# ⊙, ⨂, threshold combine, and one end-to-end δ'=101 query, with
# byte-identical exact outputs enforced. Refresh the baseline by copying
# BENCH_kernel.ci.json over BENCH_kernel.json on representative hardware.
bench-kernel:
	$(GO) run ./cmd/ppgnn-experiments -kernel-gate -gate-reps 3 \
		-kernel-baseline BENCH_kernel.json -kernel-out BENCH_kernel.ci.json

# Seeded n=5 t=3 faultnet soak; writes per-phase p50/p95, retry/dropout
# counters, and the Precomputer hit rate to BENCH_obs.json (DESIGN.md §9).
bench-snapshot:
	$(GO) run ./cmd/ppgnn-experiments -snapshot -keybits 256 -queries 6

# The open-loop sustained-traffic conformance gate (ROADMAP item 5): an
# in-process LSP on real TCP, a fleet of client groups at a fixed Poisson
# rate, one clean pass and one under seeded faultnet faults, every
# decrypted answer checked against the plaintext engine. Fails on any SLO
# violation or oracle mismatch. Refresh the baseline by copying
# BENCH_load.ci.json over BENCH_load.json on representative hardware.
bench-load:
	$(GO) run ./cmd/ppgnn-experiments -load-gate \
		-load-baseline BENCH_load.json -load-out BENCH_load.ci.json

# The ~20s CI variant: lower rate, shorter measure window, same oracle
# check and SLOs.
load-smoke:
	$(GO) run ./cmd/ppgnn-experiments -load-gate -load-rate 25 -load-measure 4s \
		-load-baseline BENCH_load.json -load-out BENCH_load.ci.json

# The steady-state throughput gate (DESIGN.md §15): the load gate plus
# two sustained passes — coalescer off then on, with background-refilled
# randomness pools and the shared constant cache engaged in both — a
# byte-identity probe of the coalesced path, and the ≥1.3× achieved-QPS
# floor on ≥2 cores (loudly skipped on one core; conformance and
# byte-identity always enforced).
sustained-gate:
	$(GO) run ./cmd/ppgnn-experiments -load-gate -sustained \
		-load-baseline BENCH_load.json -load-out BENCH_load.ci.json

# The multi-tenant lifecycle soak: two tenants under concurrent traffic
# (one behind seeded faults, one with a quota of a single session) while
# a reload storm rewrites the config mid-traffic. Fails on any oracle
# mismatch, lost session, epoch leak, or a shed not classified retryable.
chaos-gate:
	$(GO) run ./cmd/ppgnn-experiments -chaos-gate -chaos-out BENCH_chaos.ci.json

# The sharded-index gate (ROADMAP item 2): single-tree vs sharded+grid
# indexes at 10k/100k/1M synthetic POIs — per-candidate answers identical
# across paths (brute-force oracle-checked at 10k), encrypted answers
# byte-identical, candidate work sub-linear in database size, parallel
# sweep speedup floor on multi-core hardware. Refresh the baseline by
# copying BENCH_shard.ci.json over BENCH_shard.json on representative
# hardware.
shard-gate:
	$(GO) run ./cmd/ppgnn-experiments -shard-gate -gate-reps 3 \
		-shard-baseline BENCH_shard.json -shard-out BENCH_shard.ci.json

# Boot a two-tenant ppgnn-lsp from a config file, probe /healthz and
# /readyz, SIGHUP-reload it mid-load, then run the chaos soak (the CI
# svc-smoke job).
svc-smoke:
	./scripts/svc-smoke.sh

# Start the LSP with -metrics-addr, query it once, and check the metrics
# endpoint serves a JSON snapshot (the CI smoke test).
metrics-smoke:
	./scripts/metrics-smoke.sh

clean:
	rm -f BENCH_obs.json BENCH_parallel.ci.json BENCH_kernel.ci.json BENCH_load.ci.json BENCH_chaos.ci.json BENCH_shard.ci.json
