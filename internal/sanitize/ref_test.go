package sanitize

import (
	"fmt"
	"math/rand"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/stats"
)

// This file keeps the straightforward sanitizer the filtering kernel
// replaced, verbatim apart from names: every sample drawn up front per
// target, then one pass over the survivors per inequality with two
// math.Hypot distances per test. The byte-identity tests pin the kernel
// against it.

// sanitizeRef is the reference Config.Sanitize.
func (c Config) sanitizeRef(rng *rand.Rand, answer []gnn.Result, query []geo.Point) []gnn.Result {
	c = c.withDefaults()
	if len(query) <= 1 || len(answer) <= 1 {
		return answer
	}
	if c.Theta0 <= 0 || c.Theta0 > 1 {
		panic(fmt.Sprintf("sanitize: θ0=%v outside (0,1]", c.Theta0))
	}
	nh := c.SampleSize()
	test := stats.ZTest{Theta0: c.Theta0, Gamma: c.Gamma}
	threshold := test.Threshold(nh)

	states := make([]*refState, len(query))
	for u := range query {
		states[u] = newRefState(c, rng, answer, query, u, nh)
	}
	safe := 1
	for t := 1; t < len(answer); t++ {
		ok := true
		for _, st := range states {
			if float64(st.addInequality(t)) <= threshold {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		safe = t + 1
	}
	return answer[:safe]
}

// attackThetaRef is the reference Config.AttackTheta.
func (c Config) attackThetaRef(rng *rand.Rand, answer []gnn.Result, query []geo.Point, target, samples int) float64 {
	c = c.withDefaults()
	if target < 0 || target >= len(query) {
		panic("sanitize: target user out of range")
	}
	if samples <= 0 {
		samples = c.SampleSize()
	}
	st := newRefState(c, rng, answer, query, target, samples)
	surv := samples
	for t := 1; t < len(answer); t++ {
		surv = st.addInequality(t)
	}
	return float64(surv) / float64(samples)
}

// refState tracks, for one target user, the sample points that still
// satisfy every inequality added so far.
type refState struct {
	cfg       Config
	answer    []gnn.Result
	partial   []float64
	survivors []geo.Point
}

func newRefState(c Config, rng *rand.Rand, answer []gnn.Result, query []geo.Point, target, nh int) *refState {
	st := &refState{cfg: c, answer: answer}
	st.partial = make([]float64, len(answer))
	for i, res := range answer {
		st.partial[i] = partialAggregate(c.Agg, res.Item.P, query, target)
	}
	st.survivors = make([]geo.Point, nh)
	for i := range st.survivors {
		st.survivors[i] = geo.Point{
			X: c.Space.Min.X + rng.Float64()*c.Space.Width(),
			Y: c.Space.Min.Y + rng.Float64()*c.Space.Height(),
		}
	}
	return st
}

// addInequality filters the surviving samples with inequality
// F(p_t) ≤ F(p_{t+1}) (0-based: answer[t-1] vs answer[t]) and returns the
// surviving count.
func (st *refState) addInequality(t int) int {
	pa := st.answer[t-1].Item.P
	pb := st.answer[t].Item.P
	parA := st.partial[t-1]
	parB := st.partial[t]
	agg := st.cfg.Agg
	out := st.survivors[:0]
	for _, x := range st.survivors {
		costA := combine(agg, parA, pa.Dist(x))
		costB := combine(agg, parB, pb.Dist(x))
		if costA <= costB {
			out = append(out, x)
		}
	}
	st.survivors = out
	return len(out)
}
