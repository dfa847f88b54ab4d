// Package sanitize implements Section 5 of the paper: the full-user-
// collusion inequality attack and the answer sanitation that defeats it.
//
// Given a ranked answer P = {p_1, …, p_k} for query locations C, any n−1
// colluding users know every location but the target's and can intersect
// the k−1 inequalities F(p_i, C) ≤ F(p_{i+1}, C) to bound the target's
// location (Eqn 14). Privacy IV holds iff the feasible region's relative
// area θ exceeds θ0 for every target user.
//
// The LSP defends by simulating the attack itself: it returns the longest
// prefix P' of P such that, for every target user, a one-tailed Z-test
// (Eqn 16) over N_H uniform samples (Eqn 17) rejects H0: θ ≤ θ0. Testing
// only requires evaluating the inequalities at sample points, so the
// method works for any monotone aggregate F and any space shape (§5.3).
//
// The implementation filters the sample set incrementally: extending the
// prefix by one POI adds exactly one inequality, so only the samples that
// survived the previous inequalities are re-tested. This is why the LSP
// cost plateaus as k grows (paper Figure 6f).
package sanitize

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/stats"
)

// Paper-default hypothesis-testing parameters (Section 5.3).
const (
	DefaultGamma = 0.05 // Type I error bound γ
	DefaultEta   = 0.2  // Type II error bound η
	DefaultPhi   = 0.1  // ratio difference φ between θ1 and θ0
)

// Config parameterizes the sanitizer.
type Config struct {
	Theta0 float64       // Privacy IV parameter θ0 ∈ (0,1]
	Gamma  float64       // Type I error bound (DefaultGamma if 0)
	Eta    float64       // Type II error bound (DefaultEta if 0)
	Phi    float64       // θ1/θ0 − 1 (DefaultPhi if 0)
	Space  geo.Rect      // the location space to sample from
	Agg    gnn.Aggregate // the aggregate F of the query
}

func (c Config) withDefaults() Config {
	if c.Gamma == 0 {
		c.Gamma = DefaultGamma
	}
	if c.Eta == 0 {
		c.Eta = DefaultEta
	}
	if c.Phi == 0 {
		c.Phi = DefaultPhi
	}
	if !c.Space.Valid() || c.Space.Area() == 0 {
		c.Space = geo.UnitRect
	}
	return c
}

// SampleSize returns N_H for this configuration (Theorem 5.1).
func (c Config) SampleSize() int {
	c = c.withDefaults()
	return stats.SampleSize(c.Theta0, c.Gamma, c.Eta, c.Phi)
}

// Sanitize returns the longest safe prefix of the ranked answer for the
// query (Section 5.2). The rng drives the Monte-Carlo sampling; use a
// per-candidate seeded source for reproducible experiments.
//
// For n ≤ 1 there are no other users and Privacy IV does not apply, so the
// answer is returned unchanged. A one-element prefix is always safe.
func (c Config) Sanitize(rng *rand.Rand, answer []gnn.Result, query []geo.Point) []gnn.Result {
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

	// The prefix P' = answer[:safe] is safe iff every target keeps more
	// than threshold samples under each of its k'−1 inequalities, so safe
	// is the least over targets of the first inequality that fails. Each
	// target draws its N_H samples in target order, and its filtering
	// stops at that first failure or at the bound earlier targets set.
	f := newFilter(c, answer)
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	safe := len(answer)
	for u := range query {
		t, count := f.attack(rng, sc, f.partials(query, u), nh, safe, threshold)
		if t > 0 && float64(count) <= threshold {
			safe = t
		}
	}
	return answer[:safe]
}

// AttackTheta estimates, from the colluders' side, the relative area θ of
// the region consistent with a received (already sanitized) answer for a
// given target user. It is the attack of Section 5.1 and is used by tests
// and examples to verify Privacy IV empirically.
func (c Config) AttackTheta(rng *rand.Rand, answer []gnn.Result, query []geo.Point, target, samples int) float64 {
	c = c.withDefaults()
	if target < 0 || target >= len(query) {
		panic("sanitize: target user out of range")
	}
	if samples <= 0 {
		samples = c.SampleSize()
	}
	f := newFilter(c, answer)
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	_, count := f.attack(rng, sc, f.partials(query, target), samples, len(answer), -1)
	return float64(count) / float64(samples)
}

// partialAggregate computes the aggregate of dist(p, l_j) over j != target.
// For Sum it is the partial sum; for Max/Min the partial extreme.
func partialAggregate(agg gnn.Aggregate, p geo.Point, query []geo.Point, target int) float64 {
	switch agg {
	case gnn.Sum:
		s := 0.0
		for j, l := range query {
			if j != target {
				s += p.Dist(l)
			}
		}
		return s
	case gnn.Max:
		m := 0.0
		for j, l := range query {
			if j != target {
				if d := p.Dist(l); d > m {
					m = d
				}
			}
		}
		return m
	case gnn.Min:
		m := math.Inf(1)
		for j, l := range query {
			if j != target {
				if d := p.Dist(l); d < m {
					m = d
				}
			}
		}
		return m
	default:
		panic("sanitize: unknown aggregate")
	}
}

// combine folds the target's distance into a partial aggregate.
func combine(agg gnn.Aggregate, partial, d float64) float64 {
	switch agg {
	case gnn.Sum:
		return partial + d
	case gnn.Max:
		if d > partial {
			return d
		}
		return partial
	case gnn.Min:
		if d < partial {
			return d
		}
		return partial
	default:
		panic("sanitize: unknown aggregate")
	}
}

// The filtering kernel. Sanitize and AttackTheta both run the attack of
// Section 5.1 through it: for one target user, draw samples X uniformly
// over the space and keep those that satisfy every inequality
// F(p_{t−1}, C[target→X]) ≤ F(p_t, C[target→X]) of the ranked answer.
//
//   - Draw order. A target's samples are drawn in chunks of chunkSize
//     and filtered by the first inequality at once; only survivors stay
//     in the slab. Each sample consumes rng.Float64() for X, then for Y,
//     and every target draws all its samples in target order, so the rng
//     is consumed exactly as by drawing all samples up front.
//   - Distances. The target's distance to a POI is sqrt(dx²+dy²), and
//     each survivor keeps its distance to p_t for the next inequality,
//     so one square root per survivor per inequality remains. The
//     inequality is decided from these costs only when they differ by
//     more than a relative margin; inside it, the sample is decided by
//     the original expression with geo.Point.Dist (math.Hypot), so the
//     decision never differs from it. See margin for the bound.
//   - Compaction is branch-free: every sample is written at index j and
//     j advances by keep ∈ {0,1}. Whether a random sample survives is a
//     coin flip, which a branch would mispredict about half the time.

// chunkSize is how many samples are drawn into the slab's tail before
// the first inequality filters them in place.
const chunkSize = 256

// margin and marginFloor bound where a cost comparison made with
// sqrt(dx²+dy²) may disagree with one made with math.Hypot. Let u = 2^-53
// be the unit roundoff and D the exact distance of the (identically
// rounded) dx, dy.
//
//   - sqrt(dx²+dy²) rounds four times, and the square root halves the
//     error of its argument: it is within 2.5u·D of D.
//   - math.Hypot evaluates p·sqrt(1+(q/p)²) with five roundings; budget
//     4 ulp, 8u·D, for it (it is documented to within about one).
//   - So the two distances f and h differ by at most 11u·D ≤ 12u·f.
//   - Sum adds a non-negative partial with one rounding: the costs differ
//     by at most 12u·f + u·(c_f + c_h) ≤ 15u·c_f, as f ≤ c_f. Max and Min
//     return one operand exactly: they differ by at most |f − h|, which
//     is at most 12u·c_f whenever the two results take different
//     operands, and zero otherwise.
//   - Below 2^-511, dx² and dy² lose relative precision as subnormals,
//     but each rounding still errs by at most 2^-1075, so f moves by at
//     most sqrt(3·2^-1075) < 2^-536 in absolute terms.
//
// Both sides of an inequality together therefore err by less than
// 15u·(c_a+c_b) + 2^-535 ≈ 1.7e-15·(c_a+c_b). When |c_a − c_b| exceeds
// margin·(c_a+c_b) + marginFloor, over 500 times that bound, the Hypot
// comparison has the same sign and the fast decision is exact. NaN or
// infinite costs fail the test and take the exact path too; coordinates
// large enough for dx² to overflow never reach the fast path (see
// fastLimit).
const (
	margin      = 0x1p-40
	marginFloor = 0x1p-500
)

// fastLimit bounds the coordinates the fast path accepts: within it,
// |dx|, |dy| ≤ 2^510 and dx²+dy² cannot overflow.
const fastLimit = 0x1p509

// sample is one Monte-Carlo point and its distance, sqrt(dx²+dy²), to
// the POI on the left of the next inequality.
type sample struct {
	x, y, d float64
}

// scratch is a pooled survivor slab. It holds one target's survivors of
// the first inequality, plus at most one chunk being drawn.
type scratch struct {
	slab []sample
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledSlab caps the slab kept for reuse (24 B a sample, so 1.5 MB):
// N_H is 12,118 at the paper's θ0 = 0.05 and 63,225 at θ0 = 0.01. A
// larger slab serves its call and is dropped.
const maxPooledSlab = 1 << 16

func (sc *scratch) release() {
	if cap(sc.slab) > maxPooledSlab {
		sc.slab = nil
	}
	sc.slab = sc.slab[:0]
	scratchPool.Put(sc)
}

// filter is the kernel's view of one ranked answer.
type filter struct {
	agg   gnn.Aggregate
	pts   []geo.Point // answer POIs in rank order
	space geo.Rect
	w, h  float64 // space extent, as the draws have always computed it
	fast  bool    // every coordinate within ±fastLimit
}

func newFilter(c Config, answer []gnn.Result) *filter {
	f := &filter{agg: c.Agg, space: c.Space, w: c.Space.Width(), h: c.Space.Height()}
	f.pts = make([]geo.Point, len(answer))
	for i, res := range answer {
		f.pts[i] = res.Item.P
	}
	f.fast = small(c.Space.Min) && small(c.Space.Max)
	for _, p := range f.pts {
		f.fast = f.fast && small(p)
	}
	return f
}

// small reports whether both coordinates lie within ±fastLimit (false
// for NaN).
func small(p geo.Point) bool {
	return math.Abs(p.X) <= fastLimit && math.Abs(p.Y) <= fastLimit
}

// partials returns the aggregate of each answer POI over the non-target
// users.
func (f *filter) partials(query []geo.Point, target int) []float64 {
	out := make([]float64, len(f.pts))
	for i, p := range f.pts {
		out[i] = partialAggregate(f.agg, p, query, target)
	}
	return out
}

// attack runs the attack for one target: it draws n samples from rng
// into sc's slab and applies inequalities 1, 2, … of the prefix
// answer[:upto] in turn, stopping after the first one that leaves stop
// or fewer survivors. It returns the last inequality applied (0 when
// upto ≤ 1: the samples are drawn and none is applied) and the number
// of samples that satisfy inequalities 1..that one.
func (f *filter) attack(rng *rand.Rand, sc *scratch, partial []float64, n, upto int, stop float64) (applied, count int) {
	first := upto > 1
	sc.slab = f.draw(rng, sc.slab[:0], partial, n, first)
	count = len(sc.slab)
	if !first {
		return 0, count
	}
	for applied = 1; float64(count) > stop && applied+1 < upto; applied++ {
		count = f.filter(sc.slab[:count], partial, applied+1)
	}
	return applied, count
}

// draw consumes n samples from rng and appends them to slab. With first
// set it keeps only those satisfying the first inequality, each carrying
// its distance to pts[1]. Samples are drawn chunkSize at a time into the
// slab's tail and filtered in place, so the slab grows by survivors plus
// at most one chunk.
func (f *filter) draw(rng *rand.Rand, slab []sample, partial []float64, n int, first bool) []sample {
	var p0 geo.Point
	if first {
		p0 = f.pts[0]
	}
	for n > 0 {
		m := min(n, chunkSize)
		n -= m
		slab = slices.Grow(slab, m)
		chunk := slab[len(slab) : len(slab)+m]
		for i := range chunk {
			x := f.space.Min.X + rng.Float64()*f.w
			y := f.space.Min.Y + rng.Float64()*f.h
			chunk[i] = sample{x: x, y: y}
		}
		if first {
			// A loop of its own, free of calls, keeps the square roots
			// pipelined.
			for i := range chunk {
				chunk[i].d = fastDist(p0, chunk[i].x, chunk[i].y)
			}
			m = f.filter(chunk, partial, 1)
		}
		slab = slab[:len(slab)+m]
	}
	return slab
}

// filter applies inequality t, F(p_{t−1}) ≤ F(p_t) (0-based answer
// indices), to samples that carry their distance to p_{t−1}, compacting
// the survivors in place with their distance to p_t, and returns how many
// remain. Outside the margin the fast costs decide; inside it, and off
// the fast path, the original Hypot expression does.
func (f *filter) filter(s []sample, partial []float64, t int) int {
	pb := f.pts[t]
	parA, parB := partial[t-1], partial[t]
	agg, fast := f.agg, f.fast
	j := 0
	for i := range s {
		x := s[i]
		db := fastDist(pb, x.x, x.y)
		ca, cb := parA+x.d, parB+db
		if agg != gnn.Sum {
			ca, cb = combine(agg, parA, x.d), combine(agg, parB, db)
		}
		diff := ca - cb
		keep := b2i(diff < 0)
		if !fast || !(math.Abs(diff) > margin*(ca+cb)+marginFloor) {
			keep = f.exact(parA, parB, t, geo.Point{X: x.x, Y: x.y})
		}
		s[j] = sample{x: x.x, y: x.y, d: db}
		j += keep
	}
	return j
}

// fastDist is sqrt(dx²+dy²) with dx, dy rounded exactly as
// geo.Point.Dist rounds them.
func fastDist(p geo.Point, x, y float64) float64 {
	dx, dy := p.X-x, p.Y-y
	return math.Sqrt(dx*dx + dy*dy)
}

// exact decides inequality t for x with the original expression.
func (f *filter) exact(parA, parB float64, t int, x geo.Point) int {
	return b2i(combine(f.agg, parA, f.pts[t-1].Dist(x)) <= combine(f.agg, parB, f.pts[t].Dist(x)))
}

// b2i converts a bool to 0 or 1 without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// GridTheta estimates the attack region deterministically by testing a
// gridSize×gridSize lattice of cell centers instead of random samples. It
// is used to cross-validate the Monte-Carlo estimator (the Z-test needs
// i.i.d. samples, so the protocol itself uses AttackTheta/Sanitize; the
// lattice gives a reproducible reference).
func (c Config) GridTheta(answer []gnn.Result, query []geo.Point, target, gridSize int) float64 {
	c = c.withDefaults()
	if target < 0 || target >= len(query) {
		panic("sanitize: target user out of range")
	}
	if gridSize < 1 {
		panic("sanitize: grid size must be positive")
	}
	if len(answer) <= 1 {
		return 1
	}
	partials := make([]float64, len(answer))
	for i, res := range answer {
		partials[i] = partialAggregate(c.Agg, res.Item.P, query, target)
	}
	inside := 0
	for gy := 0; gy < gridSize; gy++ {
		for gx := 0; gx < gridSize; gx++ {
			x := geo.Point{
				X: c.Space.Min.X + (float64(gx)+0.5)/float64(gridSize)*c.Space.Width(),
				Y: c.Space.Min.Y + (float64(gy)+0.5)/float64(gridSize)*c.Space.Height(),
			}
			ok := true
			for t := 1; t < len(answer); t++ {
				costA := combine(c.Agg, partials[t-1], answer[t-1].Item.P.Dist(x))
				costB := combine(c.Agg, partials[t], answer[t].Item.P.Dist(x))
				if costA > costB {
					ok = false
					break
				}
			}
			if ok {
				inside++
			}
		}
	}
	return float64(inside) / float64(gridSize*gridSize)
}
