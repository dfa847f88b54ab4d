package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the workloads and metric tables the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var b struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []declared, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if err := checkMetric(m.Name, m.Unit, 1); err != nil {
				t.Errorf("%s: %v", kind, err)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)

	var setupBound float64
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound != nil && *m.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestWorkloadsMeasureEnoughQueries keeps every workload's query floor at
// the sample count a p90 needs.
func TestWorkloadsMeasureEnoughQueries(t *testing.T) {
	for _, s := range specs {
		if s.queries < minSamples {
			t.Errorf("workload %s measures %d queries, a p90 needs %d", s.name, s.queries, minSamples)
		}
	}
}
