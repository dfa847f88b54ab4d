package main

import (
	"math/rand"
	"testing"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
)

// TestReplayIsByteIdentical replays small queries of both variants, with
// and without sanitization, and requires the stage-by-stage answer to
// match LSP.Process byte for byte.
func TestReplayIsByteIdentical(t *testing.T) {
	items := dataset.Synthetic(3, 2000)
	serving := core.NewLSP(items, geo.UnitRect)
	serving.Workers = 2
	serving.Rerandomize = true
	serving.SanitizeSeed = 9
	for _, variant := range []core.Variant{core.VariantPPGNN, core.VariantOPT} {
		for _, sanitize := range []bool{false, true} {
			p := core.DefaultParams(4)
			p.KeyBits = 256
			p.D, p.Delta = 5, 10
			p.Variant = variant
			p.NoSanitize = !sanitize
			rng := rand.New(rand.NewSource(int64(variant) + 1))
			g, err := core.NewGroup(p, randomLocations(rng, p.N), rng)
			if err != nil {
				t.Fatal(err)
			}
			q, locs, err := g.BuildQuery(nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := replay(ledgerLSP(serving), q, locs, serving.Rerandomize, serving.RerandPools)
			if err != nil {
				t.Fatalf("%v sanitize=%v: %v", variant, sanitize, err)
			}
			if !s.byteIdentity {
				t.Errorf("%v sanitize=%v: replayed answer differs from LSP.Process", variant, sanitize)
			}
			if s.nCandidates != g.DeltaPrime() || s.scanned == 0 || s.rows == 0 || s.selectTerms == 0 {
				t.Errorf("%v sanitize=%v: empty ledger %+v", variant, sanitize, s)
			}
			if (s.samples > 0) != sanitize {
				t.Errorf("%v sanitize=%v: sanitizer drew %d samples", variant, sanitize, s.samples)
			}
			if s.rerand <= 0 {
				t.Errorf("%v sanitize=%v: rerandomization not timed", variant, sanitize)
			}
		}
	}
	if serving.Workers != 2 || !serving.Rerandomize {
		t.Error("ledgerLSP modified the serving LSP")
	}
}
