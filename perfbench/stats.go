package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have
// strictly above it: a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// minSamples is the sample floor a run collects before it may stop, so
// that query_p90_s always satisfies the minBeyond rule.
const minSamples = 100

// percentile returns the nearest-rank p-quantile of xs. It refuses to
// report a percentile with fewer than minBeyond samples beyond it, since
// such a figure is set by a handful of outliers. Failed operations are
// passed in as +Inf, so they count as missing any latency limit.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// perQuery divides a total by a query count (0 for no queries).
func perQuery(total float64, queries int) float64 {
	if queries == 0 {
		return 0
	}
	return total / float64(queries)
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetric validates a metric's name and unit against the charset the
// result format allows, and rejects values JSON cannot carry.
func checkMetric(name, unit string, v float64) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("metric name %q outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", name, unit)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s: value %v is not a finite number", name, v)
	}
	return nil
}
