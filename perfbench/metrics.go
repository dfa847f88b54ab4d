package main

import (
	"fmt"
	"math"
)

// metricSpec names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same metrics in the same order.
type metricSpec struct{ name, unit string }

// endToEndMetrics are what a user of the service sees (--trace 0).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"query_p50_s", "s"},
	{"query_p90_s", "s"},
	{"cpu_ms_per_query", "ms"},
	{"ok_share", "share"},
	{"up_bytes_per_query", "bytes"},
	{"down_bytes_per_query", "bytes"},
	{"intra_bytes_per_query", "bytes"},
	{"pois_returned_mean", "pois"},
	{"update_p50_s", "s"},
	{"update_p90_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the single-layer figures of the traced run
// (--trace 1), named by module.
var perLayerMetrics = []metricSpec{
	{"core.build_ms", "ms"},
	{"paillier.enc_online", "count"},
	{"paillier.enc_pooled", "count"},
	{"core.decrypt_ms", "ms"},
	{"paillier.select_ms", "ms"},
	{"paillier.select_terms", "count"},
	{"paillier.rerand_ms", "ms"},
	{"sanitize.ms", "ms"},
	{"sanitize.samples", "count"},
	{"sanitize.truncated_share", "share"},
	{"gnn.search_ms", "ms"},
	{"gnn.scanned_pois", "count"},
	{"rtree.insert_us", "us"},
	{"rtree.delete_us", "us"},
	{"partition.candidates_ms", "ms"},
	{"encode.ms", "ms"},
	{"encode.rows", "count"},
	{"core.lsp_process_ms", "ms"},
	{"ledger.closure_ratio", "ratio"},
	{"transport.rpc_ms", "ms"},
	{"transport.overhead_ms", "ms"},
	{"transport.retries", "count"},
	{"svc.busy_sheds", "count"},
	{"load.sched_lag_p90_ms", "ms"},
	{"load.peak_in_flight", "count"},
	{"runtime.alloc_mb_per_query", "MB"},
	{"runtime.gc_cpu_share", "share"},
	{"trace.overhead_share", "share"},
}

// collect pairs every metric of the table with its measured value. A
// table metric without a value, or a value the table does not list, is
// a bug in the benchmark.
func collect(table []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(table))
	for _, m := range table {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a failed query's latency: past any limit
		}
		if err := checkMetric(m.name, m.unit, v); err != nil {
			return nil, err
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(values) != len(table) {
		return nil, fmt.Errorf("measured %d metrics, the table lists %d", len(values), len(table))
	}
	return out, nil
}
