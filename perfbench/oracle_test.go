package main

import (
	"math/rand"
	"testing"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
)

// runSmallQuery answers one small PPGNN query end to end and returns
// what the oracle needs to check it.
func runSmallQuery(t *testing.T, sanitize bool, seed int64) (*oracle, []geo.Point, *recorder, []encode.Record) {
	t.Helper()
	items := dataset.Synthetic(seed, 3000)
	lsp := core.NewLSP(items, geo.UnitRect)
	lsp.SanitizeSeed = seed
	p := core.DefaultParams(4)
	p.KeyBits = 256
	p.D, p.Delta = 5, 10
	p.NoSanitize = !sanitize
	rng := rand.New(rand.NewSource(seed))
	real := randomLocations(rng, p.N)
	g, err := core.NewGroup(p, real, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{inner: core.LocalService{LSP: lsp}}
	res, err := g.Run(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{pois: newPOISet(items), space: geo.UnitRect, sanitizeSeed: lsp.SanitizeSeed}
	return o, real, rec, res.Records
}

func TestOracleAcceptsAndCatchesCorruption(t *testing.T) {
	for _, sanitize := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			o, real, rec, got := runSmallQuery(t, sanitize, seed)
			if err := o.check(real, rec.q, rec.locs, got); err != nil {
				t.Fatalf("sanitize=%v seed %d: correct answer rejected: %v", sanitize, seed, err)
			}

			moved := append([]encode.Record(nil), got...)
			moved[0].X ^= 1 // one quantization step off
			if err := o.check(real, rec.q, rec.locs, moved); err == nil {
				t.Errorf("sanitize=%v seed %d: answer with a moved POI accepted", sanitize, seed)
			}
			if err := o.check(real, rec.q, rec.locs, got[:len(got)-1]); err == nil {
				t.Errorf("sanitize=%v seed %d: truncated answer accepted", sanitize, seed)
			}
			if len(got) > 1 {
				swapped := append([]encode.Record(nil), got...)
				swapped[0], swapped[1] = swapped[1], swapped[0]
				if err := o.check(real, rec.q, rec.locs, swapped); err == nil {
					t.Errorf("sanitize=%v seed %d: reordered answer accepted", sanitize, seed)
				}
			}
		}
	}
}

func TestOracleSeesUpdates(t *testing.T) {
	o, real, rec, got := runSmallQuery(t, false, 7)
	// Deleting the best POI from the database makes the answer computed
	// before the delete stale.
	best := o.pois.topK(real, 1)[0].Item
	for i, it := range o.pois.items {
		if it == best {
			o.pois.remove(i)
			break
		}
	}
	if err := o.check(real, rec.q, rec.locs, got); err == nil {
		t.Error("stale answer accepted after a delete")
	}
	o.pois.add(best)
	if err := o.check(real, rec.q, rec.locs, got); err != nil {
		t.Errorf("answer rejected after the POI came back: %v", err)
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	items := dataset.Synthetic(11, 5000)
	s := newPOISet(items)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		q := randomLocations(rng, 1+rng.Intn(6))
		k := 1 + rng.Intn(12)
		want := (&gnn.BruteForce{Items: items, Agg: gnn.Sum}).Search(q, k)
		got := s.topK(q, k)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Item != want[j].Item {
				t.Fatalf("query %d rank %d: %v, want %v", i, j, got[j].Item, want[j].Item)
			}
		}
	}
}
