package sanitize

import (
	"math/rand"
	"testing"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/rtree"
)

func defaultConfig(theta0 float64) Config {
	return Config{Theta0: theta0, Space: geo.UnitRect, Agg: gnn.Sum}
}

func randomQuery(rng *rand.Rand, n int) []geo.Point {
	q := make([]geo.Point, n)
	for i := range q {
		q[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return q
}

// answerFor computes a real top-k answer over a random database.
func answerFor(rng *rand.Rand, query []geo.Point, k int) []gnn.Result {
	items := make([]rtree.Item, 2000)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	bf := &gnn.BruteForce{Items: items, Agg: gnn.Sum}
	return bf.Search(query, k)
}

func TestSanitizeSingleUserUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := randomQuery(rng, 1)
	ans := answerFor(rng, q, 8)
	got := defaultConfig(0.05).Sanitize(rng, ans, q)
	if len(got) != len(ans) {
		t.Fatalf("n=1 sanitation truncated to %d", len(got))
	}
}

func TestSanitizeSinglePOIAlwaysSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := randomQuery(rng, 4)
	ans := answerFor(rng, q, 1)
	got := defaultConfig(0.5).Sanitize(rng, ans, q)
	if len(got) != 1 {
		t.Fatalf("single-POI answer truncated to %d", len(got))
	}
}

func TestSanitizeReturnsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randomQuery(rng, 8)
	ans := answerFor(rng, q, 16)
	got := defaultConfig(0.05).Sanitize(rng, ans, q)
	if len(got) < 1 || len(got) > len(ans) {
		t.Fatalf("sanitized length %d outside [1,%d]", len(got), len(ans))
	}
	for i := range got {
		if got[i].Item.ID != ans[i].Item.ID {
			t.Fatalf("sanitized answer is not a prefix at %d", i)
		}
	}
}

// The central guarantee: after sanitation, the colluders' feasible region
// for every target user exceeds θ0 (up to Monte-Carlo noise).
func TestSanitizedAnswerResistsAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := defaultConfig(0.05)
	for trial := 0; trial < 5; trial++ {
		q := randomQuery(rng, 6)
		ans := answerFor(rng, q, 16)
		safe := cfg.Sanitize(rng, ans, q)
		for target := range q {
			theta := cfg.AttackTheta(rand.New(rand.NewSource(int64(trial*10+target))), safe, q, target, 20000)
			// Allow modest slack below θ0 for sampling noise on both sides.
			if theta < cfg.Theta0*0.7 {
				t.Fatalf("trial %d target %d: post-sanitation θ=%v ≪ θ0=%v",
					trial, target, theta, cfg.Theta0)
			}
		}
	}
}

// Conversely the unsanitized full answer usually pins users to a small
// region — i.e. sanitation is actually doing something. We check that the
// sanitizer truncates at least one of several random queries at θ0=0.05.
func TestSanitizeTruncatesSometimes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := defaultConfig(0.05)
	truncated := false
	for trial := 0; trial < 6 && !truncated; trial++ {
		q := randomQuery(rng, 8)
		ans := answerFor(rng, q, 16)
		if len(cfg.Sanitize(rng, ans, q)) < len(ans) {
			truncated = true
		}
	}
	if !truncated {
		t.Fatal("sanitizer never truncated a 16-POI answer at θ0=0.05 over 6 trials")
	}
}

// A larger θ0 is a stronger requirement and can only shorten the prefix
// (Figure 7c).
func TestStrongerTheta0ShortensPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := randomQuery(rng, 8)
	ans := answerFor(rng, q, 16)
	prev := len(ans) + 1
	for _, th := range []float64{0.01, 0.05, 0.1, 0.3} {
		got := defaultConfig(th).Sanitize(rand.New(rand.NewSource(42)), ans, q)
		if len(got) > prev {
			t.Fatalf("θ0=%v gave longer prefix (%d) than weaker setting (%d)", th, len(got), prev)
		}
		prev = len(got)
	}
}

func TestSanitizeAllAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := randomQuery(rng, 5)
	items := make([]rtree.Item, 1000)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	for _, agg := range []gnn.Aggregate{gnn.Sum, gnn.Max, gnn.Min} {
		bf := &gnn.BruteForce{Items: items, Agg: agg}
		ans := bf.Search(q, 10)
		cfg := Config{Theta0: 0.05, Space: geo.UnitRect, Agg: agg}
		got := cfg.Sanitize(rng, ans, q)
		if len(got) < 1 {
			t.Fatalf("%v: empty sanitized answer", agg)
		}
	}
}

func TestAttackThetaFullSpaceWithoutInequalities(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := randomQuery(rng, 3)
	ans := answerFor(rng, q, 1) // one POI → no inequalities → θ = 1
	cfg := defaultConfig(0.05)
	if theta := cfg.AttackTheta(rng, ans, q, 0, 1000); theta != 1 {
		t.Fatalf("θ with no inequalities = %v, want 1", theta)
	}
}

func TestSampleSizeMatchesStats(t *testing.T) {
	cfg := defaultConfig(0.05)
	if got := cfg.SampleSize(); got < 10000 {
		t.Fatalf("N_H = %d implausibly small for θ0=0.05", got)
	}
	// Larger θ0 → fewer samples (Figure 6l's mechanism).
	if defaultConfig(0.1).SampleSize() >= defaultConfig(0.01).SampleSize() {
		t.Fatal("sample size did not shrink with θ0")
	}
}

func TestSanitizePanicsOnBadTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := randomQuery(rng, 3)
	ans := answerFor(rng, q, 4)
	for _, th := range []float64{-0.1, 0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("θ0=%v accepted", th)
				}
			}()
			Config{Theta0: th, Space: geo.UnitRect, Agg: gnn.Sum}.Sanitize(rng, ans, q)
		}()
	}
}

func TestAttackThetaPanicsOnBadTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := randomQuery(rng, 3)
	ans := answerFor(rng, q, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("bad target accepted")
		}
	}()
	defaultConfig(0.05).AttackTheta(rng, ans, q, 5, 100)
}

// More users dilute the target's weight in the sum, enlarging the feasible
// region (the Figure 7b effect): θ for n=16 should typically exceed θ for
// n=2 on the same ranked answer length.
func TestMoreUsersLargerRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := defaultConfig(0.05)
	avgTheta := func(n int) float64 {
		total := 0.0
		const trials = 40
		for trial := 0; trial < trials; trial++ {
			q := randomQuery(rng, n)
			ans := answerFor(rng, q, 4)
			total += cfg.AttackTheta(rng, ans, q, 0, 4000)
		}
		return total / trials
	}
	small, large := avgTheta(2), avgTheta(32)
	// The paper reports only a slight rise (Figure 7b); require the averaged
	// effect to be directionally right with Monte-Carlo slack.
	if large < small*0.9 {
		t.Fatalf("θ(n=32)=%v markedly below θ(n=2)=%v; dilution effect missing", large, small)
	}
}

// The deterministic lattice estimator and the Monte-Carlo estimator must
// agree on the region size.
func TestGridThetaMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := defaultConfig(0.05)
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng, 4)
		ans := answerFor(rng, q, 6)
		for target := range q {
			mc := cfg.AttackTheta(rand.New(rand.NewSource(int64(trial))), ans, q, target, 40000)
			grid := cfg.GridTheta(ans, q, target, 200)
			if diff := mc - grid; diff > 0.02 || diff < -0.02 {
				t.Fatalf("trial %d target %d: MC θ=%v vs grid θ=%v", trial, target, mc, grid)
			}
		}
	}
}

func TestGridThetaEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := randomQuery(rng, 3)
	one := answerFor(rng, q, 1)
	if got := defaultConfig(0.05).GridTheta(one, q, 0, 10); got != 1 {
		t.Fatalf("single-POI grid θ = %v, want 1", got)
	}
	ans := answerFor(rng, q, 4)
	for _, fn := range []func(){
		func() { defaultConfig(0.05).GridTheta(ans, q, -1, 10) },
		func() { defaultConfig(0.05).GridTheta(ans, q, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on invalid GridTheta input")
				}
			}()
			fn()
		}()
	}
}
