package obs

import "sort"

// This file is the single pre-registration site for every metric family
// in the stack (ISSUE 4 satellite). Before it existed, instruments came
// into being lazily at first use — transport.Pool bound its retry
// counters in init(), the paillier package in a var block — so a metrics
// snapshot taken before traffic showed an incomplete catalog, and nothing
// forced a new subsystem (like internal/parallel) to declare its metrics
// anywhere reviewable. MustPreRegister materializes the full catalog at
// zero: call it once per registry (obs.Serve does it for every served
// registry) and a snapshot enumerates every series the process can ever
// emit, all zeros until first use. TestCatalog keeps the table honest.
//
// Adding a metric anywhere in the stack means adding it here too; the
// catalog is deliberately data, not reflection, so the diff is the review.

// catalogEntry declares one metric family: its kind, name, histogram
// bounds (histograms only), and the label combinations to materialize
// (nil = one unlabeled instrument).
type catalogEntry struct {
	kind   metricKind
	name   string
	bounds []float64
	labels [][]Label
}

// each builds one label combination per value: {key=v1}, {key=v2}, ...
func each(key string, values ...string) [][]Label {
	out := make([][]Label, len(values))
	for i, v := range values {
		out[i] = []Label{L(key, v)}
	}
	return out
}

// allOf expands a label key's full closed enum, sorted for deterministic
// registration order.
func allOf(key string) [][]Label {
	vals := make([]string, 0, len(labelEnums[key]))
	for v := range labelEnums[key] {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return each(key, vals...)
}

// cross is the cartesian product of two label-combination sets.
func cross(a, b [][]Label) [][]Label {
	out := make([][]Label, 0, len(a)*len(b))
	for _, la := range a {
		for _, lb := range b {
			combo := make([]Label, 0, len(la)+len(lb))
			combo = append(combo, la...)
			combo = append(combo, lb...)
			out = append(out, combo)
		}
	}
	return out
}

// catalog lists every metric family the stack emits (DESIGN.md §9 and
// §10 document the semantics).
func catalog() []catalogEntry {
	phases := allOf("phase")
	outcomes := allOf("outcome")
	return []catalogEntry{
		// transport.Pool (client side).
		{kindCounter, "transport_dial_total", nil, each("outcome", "ok", "error")},
		{kindCounter, "transport_conn_reuse_total", nil, nil},
		{kindCounter, "transport_backoff_total", nil, nil},
		{kindGauge, "transport_inflight", nil, nil},
		{kindCounter, "transport_sessions_total", nil, outcomes},
		{kindCounter, "transport_retries_total", nil, allOf("cause")},

		// transport.Server.
		{kindCounter, "transport_server_shed_total", nil, nil},
		{kindCounter, "transport_server_panics_total", nil, nil},
		{kindCounter, "transport_server_sessions_total", nil, outcomes},
		{kindHistogram, "transport_server_frame_bytes", SizeBuckets, each("dir", "rx", "tx")},

		// group sessions.
		{kindCounter, "group_rounds_total", nil, allOf("kind")},
		{kindHistogram, "group_round_seconds", TimeBuckets, allOf("kind")},
		{kindCounter, "group_quorum_lost_total", nil, each("phase", "collect", "decrypt")},
		{kindCounter, "group_dropouts_total", nil, allOf("cause")},
		{kindCounter, "group_repartitions_total", nil, nil},
		{kindCounter, "group_equivocations_total", nil, nil},
		{kindCounter, "group_stragglers_total", nil, nil},

		// paillier crypto ops. enc/dec carry a degree label; the rest are
		// degree-free.
		{kindCounter, "paillier_ops_total", nil, cross(each("op", "enc", "dec"), allOf("degree"))},
		{kindCounter, "paillier_ops_total", nil, each("op",
			"add", "mul_plain", "dot", "mat_select", "rerandomize", "partial_dec", "combine")},
		{kindHistogram, "paillier_decrypt_seconds", TimeBuckets, allOf("path")},
		// The pool-depth gauge is per-Precomputer (degree × tenant slot),
		// not a process aggregate: the coordinator's s=1/s=2 pools and any
		// per-tenant refilled pools coexist, and one summed gauge is
		// meaningless under multi-pool traffic (ISSUE 10 satellite).
		{kindGauge, "paillier_precompute_pool_depth", nil, cross(allOf("degree"), allOf("tenant"))},
		{kindCounter, "paillier_precompute_filled_total", nil, nil},
		{kindCounter, "paillier_precompute_encrypt_total", nil, allOf("source")},

		// background Precomputer refiller (DESIGN.md §15).
		{kindCounter, "paillier_pool_refill_fills_total", nil, nil},
		{kindCounter, "paillier_pool_refill_factors_total", nil, nil},
		{kindGauge, "paillier_pool_refill_target", nil, nil},

		// protocol phase spans.
		{kindHistogram, phaseSecondsName, TimeBuckets, cross(phases, outcomes)},
		{kindCounter, phaseTotalName, nil, cross(phases, outcomes)},
		{kindCounter, phaseRetriesName, nil, phases},

		// per-query trace flight recorder (DESIGN.md §9): trace volume
		// and retention only — trace content lives in the recorder, not
		// the registry.
		{kindCounter, traceStartedName, nil, nil},
		{kindCounter, traceRemoteName, nil, nil},
		{kindCounter, traceCompletedName, nil, nil},
		{kindCounter, traceSlowName, nil, nil},
		{kindCounter, traceDumpsName, nil, nil},

		// parallel worker pool (DESIGN.md §10).
		{kindGauge, "parallel_pool_depth", nil, nil},
		{kindHistogram, "parallel_task_seconds", TimeBuckets, nil},
		{kindHistogram, "parallel_batch_size", CountBuckets, nil},

		// cross-session coalescer (DESIGN.md §15): flush trigger mix,
		// micro-batch shape (tasks and distinct sessions per flush), the
		// queue wait each submission paid, and submissions that ran
		// inline because the coalescer was closed.
		{kindCounter, "parallel_coalesce_batches_total", nil, allOf("trigger")},
		{kindCounter, "parallel_coalesce_inline_total", nil, nil},
		{kindHistogram, "parallel_coalesce_batch_tasks", CountBuckets, nil},
		{kindHistogram, "parallel_coalesce_batch_sessions", CountBuckets, nil},
		{kindHistogram, "parallel_coalesce_wait_seconds", TimeBuckets, nil},

		// modmath exponentiation kernel (DESIGN.md §11): table builds by
		// family, fixed-base table hit/miss, and the live width of every
		// multi-exponentiation.
		{kindCounter, "modmath_table_builds_total", nil, allOf("table")},
		{kindHistogram, "modmath_table_build_seconds", TimeBuckets, allOf("table")},
		{kindCounter, "modmath_fixed_base_total", nil, allOf("result")},
		{kindHistogram, "modmath_multiexp_width", CountBuckets, nil},

		// open-loop load harness (internal/load, DESIGN.md §12). Arrivals
		// only fire during warmup and measure; the drain stage merely
		// waits out in-flight sessions, so no series carries stage=drain.
		{kindCounter, "load_arrivals_total", nil, each("stage", "warmup", "measure")},
		{kindCounter, "load_dropped_total", nil, each("stage", "warmup", "measure")},
		{kindCounter, "load_sessions_total", nil, cross(each("stage", "warmup", "measure"), outcomes)},
		{kindHistogram, "load_query_seconds", TimeBuckets, each("stage", "warmup", "measure")},
		{kindHistogram, "load_sched_lag_seconds", TimeBuckets, nil},
		{kindCounter, "load_oracle_total", nil, allOf("verdict")},
		{kindGauge, "load_inflight", nil, nil},

		// service lifecycle layer (internal/svc, DESIGN.md §13). Tenants
		// appear as slots, never names (see the "tenant" enum); epochs are
		// gauges, not labels, so the series set stays fixed across any
		// number of reloads.
		{kindCounter, "svc_admissions_total", nil, cross(allOf("tenant"), allOf("admission"))},
		{kindGauge, "svc_tenant_inflight", nil, allOf("tenant")},
		{kindCounter, "svc_reloads_total", nil, each("result", "applied", "rejected")},
		{kindGauge, "svc_epoch", nil, nil},
		{kindGauge, "svc_epochs_live", nil, nil},
		{kindGauge, "svc_tenants", nil, nil},
		{kindGauge, "svc_ready", nil, nil},
		{kindCounter, "svc_watchdog_trips_total", nil, nil},
		{kindHistogram, "svc_session_cost_seconds", TimeBuckets, nil},

		// sharded POI index (internal/shard, DESIGN.md §14). Scan counts
		// are bucketed histograms (never raw POI coordinates); the grid
		// label is the closed on/off enum.
		{kindCounter, "shard_searches_total", nil, allOf("grid")},
		{kindHistogram, "shard_scanned", CountBuckets, nil},
		{kindHistogram, "shard_seed_scanned", CountBuckets, nil},
		{kindCounter, "shard_shards_pruned_total", nil, nil},
		{kindHistogram, "shard_build_seconds", TimeBuckets, nil},
		{kindGauge, "shard_count", nil, nil},
	}
}

// MustPreRegister materializes the full metric catalog on r at zero. It
// is idempotent (registration is get-or-create) and panics only on a
// catalog bug — a malformed name or an out-of-contract label — which the
// catalog test catches before any binary does.
func MustPreRegister(r *Registry) {
	for _, e := range catalog() {
		combos := e.labels
		if combos == nil {
			combos = [][]Label{nil}
		}
		for _, labels := range combos {
			switch e.kind {
			case kindCounter:
				r.Counter(e.name, labels...)
			case kindGauge:
				r.Gauge(e.name, labels...)
			case kindHistogram:
				r.Histogram(e.name, e.bounds, labels...)
			}
		}
	}
}
