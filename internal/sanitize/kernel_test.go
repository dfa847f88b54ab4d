package sanitize

import (
	"math"
	"math/rand"
	"testing"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/rtree"
)

// identityCase is one seeded sanitizer input.
type identityCase struct {
	cfg    Config
	query  []geo.Point
	answer []gnn.Result
	seed   int64
}

// randomCase draws a query of n users and the top-k answer over a small
// random database, both inside space.
func randomCase(rng *rand.Rand, space geo.Rect, agg gnn.Aggregate, n, k int, theta0 float64) identityCase {
	at := func() geo.Point {
		return geo.Point{
			X: space.Min.X + rng.Float64()*space.Width(),
			Y: space.Min.Y + rng.Float64()*space.Height(),
		}
	}
	items := make([]rtree.Item, 200)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: at()}
	}
	query := make([]geo.Point, n)
	for i := range query {
		query[i] = at()
	}
	bf := &gnn.BruteForce{Items: items, Agg: agg}
	return identityCase{
		cfg:    Config{Theta0: theta0, Space: space, Agg: agg},
		query:  query,
		answer: bf.Search(query, k),
		seed:   rng.Int63(),
	}
}

// checkIdentity runs the kernel and the reference on the same seeded
// rngs and fails unless both return the same prefix, the same θ for
// every target, and leave their rngs in the same state.
func checkIdentity(t *testing.T, tc identityCase) {
	t.Helper()
	rk, rr := rand.New(rand.NewSource(tc.seed)), rand.New(rand.NewSource(tc.seed))
	got := tc.cfg.Sanitize(rk, tc.answer, tc.query)
	want := tc.cfg.sanitizeRef(rr, tc.answer, tc.query)
	if len(got) != len(want) {
		t.Fatalf("%+v: prefix %d, reference %d", tc.cfg, len(got), len(want))
	}
	if a, b := rk.Int63(), rr.Int63(); a != b {
		t.Fatalf("%+v: sanitize consumed the rng differently from the reference", tc.cfg)
	}
	for u := range tc.query {
		samples := 500 + int(tc.seed%700)
		gk := tc.cfg.AttackTheta(rk, tc.answer, tc.query, u, samples)
		gr := tc.cfg.attackThetaRef(rr, tc.answer, tc.query, u, samples)
		if gk != gr {
			t.Fatalf("%+v target %d: θ %v, reference %v", tc.cfg, u, gk, gr)
		}
	}
	if a, b := rk.Int63(), rr.Int63(); a != b {
		t.Fatalf("%+v: AttackTheta consumed the rng differently from the reference", tc.cfg)
	}
}

// TestKernelMatchesReference pins Sanitize and AttackTheta to the
// reference implementation over 1,008 seeded cases covering every aggregate,
// n ∈ 2..8, k ∈ 1..16, three θ0 values, and unit and non-unit spaces.
func TestKernelMatchesReference(t *testing.T) {
	spaces := []geo.Rect{
		geo.UnitRect,
		{Min: geo.Point{X: -3.5, Y: 120}, Max: geo.Point{X: 41, Y: 127.25}},
	}
	for ai, agg := range []gnn.Aggregate{gnn.Sum, gnn.Max, gnn.Min} {
		t.Run(agg.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(20 + int64(ai)))
			cases := 0
			for _, theta0 := range []float64{0.01, 0.05, 0.2} {
				for _, space := range spaces {
					for n := 2; n <= 8; n++ {
						for rep := 0; rep < 8; rep++ {
							k := 1 + (n*8+rep)%16
							checkIdentity(t, randomCase(rng, space, agg, n, k, theta0))
							cases++
						}
					}
				}
			}
			if cases < 334 {
				t.Fatalf("only %d cases", cases)
			}
		})
	}
}

// TestKernelExtremeScales covers the kernel's guards: spaces so small
// that dx² underflows to subnormals, and so large that dx² overflows,
// where every sample must be decided by the original expression.
func TestKernelExtremeScales(t *testing.T) {
	spaces := []geo.Rect{
		{Min: geo.Point{X: 1e-160, Y: -3e-160}, Max: geo.Point{X: 7e-160, Y: 2e-160}},
		{Min: geo.Point{X: -1e300, Y: -2e300}, Max: geo.Point{X: 3e300, Y: 1e300}},
	}
	rng := rand.New(rand.NewSource(30))
	for _, agg := range []gnn.Aggregate{gnn.Sum, gnn.Max, gnn.Min} {
		for _, space := range spaces {
			for rep := 0; rep < 6; rep++ {
				checkIdentity(t, randomCase(rng, space, agg, 2+rep, 3+2*rep, 0.2))
			}
		}
	}
}

// TestDecisionAtBoundary plants samples exactly on an inequality's
// boundary, where Hypot and sqrt may round apart, and one ulp to either
// side, and checks each decision against the original expression.
func TestDecisionAtBoundary(t *testing.T) {
	for _, agg := range []gnn.Aggregate{gnn.Sum, gnn.Max, gnn.Min} {
		for _, tc := range []struct {
			pa, pb     geo.Point
			parA, parB float64
		}{
			// The perpendicular bisector x = 0.5 with equal partials.
			{geo.Point{X: 0.25, Y: 0.3}, geo.Point{X: 0.75, Y: 0.3}, 0.4, 0.4},
			// A skewed pair with unequal partials.
			{geo.Point{X: 0.1, Y: 0.9}, geo.Point{X: 0.7, Y: 0.2}, 0.35, 0.1},
		} {
			f := &filter{agg: agg, pts: []geo.Point{tc.pa, tc.pb}, fast: true}
			partial := []float64{tc.parA, tc.parB}
			cost := func(par float64, p, x geo.Point) float64 { return combine(agg, par, p.Dist(x)) }
			checked := 0
			for i := 0; i <= 400; i++ {
				y := float64(i) / 400
				x, ok := boundaryX(func(x float64) float64 {
					pt := geo.Point{X: x, Y: y}
					return cost(tc.parA, tc.pa, pt) - cost(tc.parB, tc.pb, pt)
				})
				if !ok {
					continue
				}
				for _, xx := range []float64{math.Nextafter(x, -1), x, math.Nextafter(x, 2)} {
					pt := geo.Point{X: xx, Y: y}
					want := cost(tc.parA, tc.pa, pt) <= cost(tc.parB, tc.pb, pt)
					s := []sample{{x: xx, y: y, d: fastDist(tc.pa, xx, y)}}
					if got := f.filter(s, partial, 1) == 1; got != want {
						t.Fatalf("%v %+v at (%v, %v): kernel keeps=%v, original %v", agg, tc, xx, y, got, want)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("%v %+v: no boundary point found", agg, tc)
			}
		}
	}
}

// boundaryX bisects g over x ∈ [0,1] to the last float where its sign
// changes, reporting false when g has one sign at both ends.
func boundaryX(g func(float64) float64) (float64, bool) {
	lo, hi := 0.0, 1.0
	if (g(lo) <= 0) == (g(hi) <= 0) {
		return 0, false
	}
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			return lo, true
		}
		if (g(mid) <= 0) == (g(lo) <= 0) {
			lo = mid
		} else {
			hi = mid
		}
	}
}

// TestTrueLocationSatisfiesInequalities: the attack region always
// contains the target's true location, since the real location satisfies
// the true inequalities by construction.
func TestTrueLocationSatisfiesInequalities(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng, 4)
		ans := answerFor(rng, q, 8)
		f := newFilter(defaultConfig(0.05).withDefaults(), ans)
		for target := range q {
			partial := f.partials(q, target)
			l := q[target]
			s := []sample{{x: l.X, y: l.Y, d: fastDist(f.pts[0], l.X, l.Y)}}
			for ti := 1; ti < len(ans); ti++ {
				if f.filter(s, partial, ti) != 1 {
					t.Fatalf("trial %d: true location excluded by inequality %d", trial, ti)
				}
			}
		}
	}
}

// FuzzSanitize checks the kernel against the reference on arbitrary
// query and database layouts.
func FuzzSanitize(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(8), uint8(0), uint8(1))
	f.Add(int64(2), uint8(2), uint8(16), uint8(1), uint8(0))
	f.Add(int64(3), uint8(8), uint8(3), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, k, agg, theta uint8) {
		rng := rand.New(rand.NewSource(seed))
		space := geo.UnitRect
		if seed%2 == 0 {
			space = geo.Rect{Min: geo.Point{X: -2, Y: 5}, Max: geo.Point{X: 9, Y: 5.5}}
		}
		tc := randomCase(rng, space, []gnn.Aggregate{gnn.Sum, gnn.Max, gnn.Min}[agg%3],
			2+int(n%7), 1+int(k%16), []float64{0.01, 0.05, 0.2}[theta%3])
		checkIdentity(t, tc)
	})
}

// BenchmarkSanitize measures one paper-default sanitation (n=4, k=8,
// θ0=0.05: N_H = 12,118 samples per target) through the kernel and the
// reference.
func BenchmarkSanitize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := randomQuery(rng, 4)
	ans := answerFor(rng, q, 8)
	cfg := defaultConfig(0.05)
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg.Sanitize(rand.New(rand.NewSource(int64(i))), ans, q)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg.sanitizeRef(rand.New(rand.NewSource(int64(i))), ans, q)
		}
	})
}
