package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"ppgnn/internal/core"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/partition"
	"ppgnn/internal/rtree"
	"ppgnn/internal/sanitize"
)

// poiSet mirrors the LSP's current POI database, so the oracle ranks
// against exactly what the LSP holds after inserts and deletes.
type poiSet struct {
	items []rtree.Item
}

func newPOISet(items []rtree.Item) *poiSet {
	return &poiSet{items: append([]rtree.Item(nil), items...)}
}

func (s *poiSet) add(it rtree.Item) { s.items = append(s.items, it) }

// remove deletes the item at index i by moving the last item into its
// place, and returns the removed item.
func (s *poiSet) remove(i int) rtree.Item {
	it := s.items[i]
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.items = s.items[:last]
	return it
}

// topK returns the plaintext Sum top-k of the set for query, ranked by
// gnn.BruteForce. The scan visits every POI twice without allocating:
// the first pass finds the k-th smallest cost, computed with a plain
// square root instead of math.Hypot, and the second keeps each POI within
// that cost widened by one part in 1e9. The two costs differ by a few
// ulps, far inside the widening, so the kept set holds every POI the full
// ranking would put in the top k, ties included, and gnn.BruteForce ranks
// it with the exact costs.
func (s *poiSet) topK(query []geo.Point, k int) []gnn.Result {
	if len(s.items) <= k {
		return (&gnn.BruteForce{Items: s.items, Agg: gnn.Sum}).Search(query, k)
	}
	h := make(costHeap, 0, k)
	for _, it := range s.items {
		c := sumDist(it.P, query)
		if len(h) < k {
			heap.Push(&h, c)
		} else if c < h[0] {
			h[0] = c
			heap.Fix(&h, 0)
		}
	}
	lim := h[0] * (1 + 1e-9)
	var kept []rtree.Item
	for _, it := range s.items {
		if sumDist(it.P, query) <= lim {
			kept = append(kept, it)
		}
	}
	return (&gnn.BruteForce{Items: kept, Agg: gnn.Sum}).Search(query, k)
}

// sumDist is the Sum aggregate cost of p, with math.Sqrt for speed.
func sumDist(p geo.Point, query []geo.Point) float64 {
	s := 0.0
	for _, q := range query {
		dx, dy := p.X-q.X, p.Y-q.Y
		s += math.Sqrt(dx*dx + dy*dy)
	}
	return s
}

// costHeap is a max-heap of costs.
type costHeap []float64

func (h costHeap) Len() int           { return len(h) }
func (h costHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h costHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *costHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// oracle checks one decrypted answer. Without sanitization the answer
// must be the plaintext top-k of the group's real locations. With
// sanitization it must be the prefix the LSP's seeded sanitizer keeps:
// the oracle finds the real query among the candidates that
// partition.Params.Candidates derives from the location sets, ranks that
// candidate's top-k, and runs sanitize.Config.Sanitize with the seed the
// LSP uses for that candidate index.
type oracle struct {
	pois         *poiSet
	space        geo.Rect
	sanitizeSeed int64 // the LSP's SanitizeSeed
}

func (o *oracle) check(real []geo.Point, q *core.QueryMsg, locs []*core.LocationMsg, got []encode.Record) error {
	want := o.pois.topK(real, q.K)
	if q.Sanitize && len(real) > 1 {
		t, err := candidateIndex(q, locs, real)
		if err != nil {
			return err
		}
		cfg := sanitize.Config{Theta0: q.Theta0, Gamma: q.Gamma, Eta: q.Eta, Phi: q.Phi, Space: o.space, Agg: q.Agg}
		want = cfg.Sanitize(rand.New(rand.NewSource(o.sanitizeSeed+int64(t))), want, real)
	}
	return compareAnswer(got, want, o.space)
}

// candidateIndex returns the position of the real query in the LSP's
// candidate list for this query.
func candidateIndex(q *core.QueryMsg, locs []*core.LocationMsg, real []geo.Point) (int, error) {
	ordered := make([][]geo.Point, len(locs))
	for _, lm := range locs {
		ordered[lm.UserID] = lm.Set
	}
	cands, err := candidateParams(q, len(locs), len(locs[0].Set)).Candidates(ordered)
	if err != nil {
		return 0, fmt.Errorf("oracle: candidates: %w", err)
	}
	found := -1
	for t, cand := range cands {
		if samePoints(cand, real) {
			if found >= 0 {
				return 0, fmt.Errorf("oracle: real query appears as candidates %d and %d", found, t)
			}
			found = t
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("oracle: real query is not among the %d candidates", len(cands))
	}
	return found, nil
}

// candidateParams rebuilds the partition parameters the LSP derives
// from a query message.
func candidateParams(q *core.QueryMsg, n, d int) partition.Params {
	alpha := len(q.NBar)
	deltaPrime := 0
	for _, di := range q.DBar {
		term := 1
		for i := 0; i < alpha; i++ {
			term *= di
		}
		deltaPrime += term
	}
	return partition.Params{N: n, D: d, Delta: q.Delta, Alpha: alpha, NBar: q.NBar, DBar: q.DBar, DeltaPrime: deltaPrime}
}

func samePoints(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareAnswer requires the decoded records to equal the expected POIs
// quantized the way the LSP encodes them (coordinates only: the paper's
// answers carry no POI identifiers).
func compareAnswer(got []encode.Record, want []gnn.Result, space geo.Rect) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: answer has %d POIs, want %d", len(got), len(want))
	}
	for i, r := range want {
		w := encode.RecordOf(r.Item.ID, r.Item.P, space)
		if got[i].X != w.X || got[i].Y != w.Y {
			return fmt.Errorf("oracle: answer rank %d is (%d,%d), want POI %d at (%d,%d)", i, got[i].X, got[i].Y, r.Item.ID, w.X, w.Y)
		}
	}
	return nil
}
