package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if p90 != 90 {
		t.Errorf("p90 = %v, want the 90th smallest sample 90", p90)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	p50, err := percentile(xs[:20], 0.5)
	if err != nil || p50 != 10 {
		t.Errorf("p50 of 20 samples = %v, %v; want 10, nil", p50, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

func TestPercentileCountsFailuresAsMissingTheLimit(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 0.1
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // failed queries
	}
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p90, 1) {
		t.Errorf("p90 with 11%% failures = %v, want +Inf", p90)
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	xs = append(xs, make([]float64, 30)...)
	if _, err := percentile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("percentile reordered its input")
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, name := range []string{"setup_s", "query_p90_s", "paillier.enc_online", "ledger.closure_ratio", "9lives", "a-b"} {
		if err := checkMetric(name, "ms", 1); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if err := checkMetric(name, "ms", 1); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	for _, unit := range []string{"ms", "s", "1/s", "count", "%", "MB"} {
		if err := checkMetric("x", unit, 1); err != nil {
			t.Errorf("unit %q: %v", unit, err)
		}
	}
	for _, unit := range []string{"", "m s", strings.Repeat("u", 17)} {
		if err := checkMetric("x", unit, 1); err == nil {
			t.Errorf("unit %q accepted", unit)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := checkMetric("x", "ms", v); err == nil {
			t.Errorf("value %v accepted", v)
		}
	}
}
