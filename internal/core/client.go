package core

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"ppgnn/internal/cost"
	"ppgnn/internal/dummy"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/paillier"
	"ppgnn/internal/partition"
	"ppgnn/internal/wire"
)

// Service abstracts the LSP from the client's point of view; LocalService
// calls an in-process LSP, wire.Client (internal/wire) talks to a remote
// one over TCP.
type Service interface {
	Process(q *QueryMsg, locs []*LocationMsg) (*AnswerMsg, error)
}

// LocalService adapts an in-process LSP, attributing its computation to
// the meter.
type LocalService struct {
	LSP   *LSP
	Meter *cost.Meter
}

// Process implements Service.
func (s LocalService) Process(q *QueryMsg, locs []*LocationMsg) (*AnswerMsg, error) {
	return s.LSP.Process(q, locs, s.Meter)
}

// Group is the client side of the protocol: the n users and the randomly
// chosen coordinator u_c (user 0 here; the choice does not affect cost or
// privacy since no extra trust is placed in u_c).
type Group struct {
	Params    Params
	Locations []geo.Point // the users' real locations
	Gen       dummy.Generator
	Rng       *rand.Rand

	// Key is the coordinator's Paillier key pair, generated by NewGroup and
	// reused across queries. KeygenTime records its one-time cost, which is
	// reported separately from the per-query user cost.
	Key        *paillier.PrivateKey
	KeygenTime time.Duration

	part partition.Params // solved once per parameter set

	// Offline encryption-randomness pools (see Precompute).
	pre1, pre2 *paillier.Precomputer

	// encOverride replaces the indicator-encryption public key (threshold
	// mode encrypts under the shared threshold modulus).
	encOverride *paillier.PublicKey

	// CacheSets reuses each user's location set (and the hidden positions)
	// across queries instead of drawing fresh dummies every time. Fresh
	// independent dummies are vulnerable to the multi-query intersection
	// attack (internal/attack): only the real location recurs across
	// queries. With caching, repeated queries present the LSP with the same
	// d-anonymous view, so its posterior never improves beyond 1/d. The
	// trade-off is linkability: the LSP can tell the queries come from the
	// same (still anonymous) group. Call InvalidateCache after moving.
	CacheSets bool
	cached    *cachedQuery
}

// cachedQuery remembers the location sets and hidden positions of the
// previous query for CacheSets mode.
type cachedQuery struct {
	seg  int
	xs   []int
	pos  int // Naive variant position
	locs []*LocationMsg
}

// InvalidateCache discards the cached location sets (required after any
// user's real location changes).
func (g *Group) InvalidateCache() { g.cached = nil }

// Precompute fills the coordinator's encryption-randomness pools while the
// device is idle (e.g. charging), so the next count indicator encryptions
// pay only the cheap plaintext-dependent part online. The pools drain one
// factor per ciphertext; call again before later queries. It returns the
// offline time spent.
func (g *Group) Precompute(count int) (time.Duration, error) {
	start := time.Now()
	var err error
	if g.pre1 == nil {
		if g.pre1, err = g.Key.NewPrecomputer(1); err != nil {
			return 0, err
		}
	}
	if err := g.pre1.Fill(nil, count); err != nil {
		return 0, err
	}
	if g.Params.Variant == VariantOPT {
		if g.pre2 == nil {
			if g.pre2, err = g.Key.NewPrecomputer(2); err != nil {
				return 0, err
			}
		}
		if err := g.pre2.Fill(nil, count); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// StartRefill starts background refillers on the coordinator's
// randomness pools (degree 1, and degree 2 for OPT), so sustained query
// streams keep finding pooled factors without explicit Precompute calls
// between queries. o configures both refillers (o.Target is typically
// the expected indicator length of the next query; drain-based sizing
// happens on top — see paillier.RefillerOptions). The returned stop
// halts them and is safe to call more than once. Threshold-mode groups
// encrypt online and have no pools to refill.
func (g *Group) StartRefill(o paillier.RefillerOptions) (func(), error) {
	if g.encOverride != nil {
		return nil, fmt.Errorf("core: threshold groups encrypt online; nothing to refill")
	}
	var err error
	if g.pre1 == nil {
		if g.pre1, err = g.Key.NewPrecomputer(1); err != nil {
			return nil, err
		}
	}
	stops := []func(){g.pre1.StartRefiller(o)}
	if g.Params.Variant == VariantOPT {
		if g.pre2 == nil {
			if g.pre2, err = g.Key.NewPrecomputer(2); err != nil {
				stops[0]()
				return nil, err
			}
		}
		stops = append(stops, g.pre2.StartRefiller(o))
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}, nil
}

// NewGroup validates the parameters, solves the partition-parameter
// program, and generates the key pair.
func NewGroup(p Params, locations []geo.Point, rng *rand.Rand) (*Group, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(locations) != p.N {
		return nil, fmt.Errorf("core: %d locations for group size n=%d", len(locations), p.N)
	}
	for i, l := range locations {
		if !p.Space.Contains(l) {
			return nil, fmt.Errorf("core: user %d location %v outside space", i, l)
		}
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	g := &Group{Params: p, Locations: locations, Gen: dummy.Uniform{}, Rng: rng}
	if p.Variant != VariantNaive {
		part, err := partition.Solve(p.N, p.D, p.Delta)
		if err != nil {
			return nil, err
		}
		g.part = part
	}
	start := time.Now()
	key, err := paillier.GenerateKey(nil, p.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("core: generating key: %w", err)
	}
	if p.ShortRandBits > 0 {
		if err := key.SetOptions(paillier.Options{ShortRandBits: p.ShortRandBits}); err != nil {
			return nil, fmt.Errorf("core: enabling short-exponent randomness: %w", err)
		}
	}
	g.Key = key
	g.KeygenTime = time.Since(start)
	return g, nil
}

// DeltaPrime returns the candidate-query count δ' the LSP will process
// (δ for the Naive variant).
func (g *Group) DeltaPrime() int {
	if g.Params.Variant == VariantNaive {
		return g.Params.Delta
	}
	return g.part.DeltaPrime
}

// BuildQuery runs Algorithm 1: the coordinator picks the segment and
// per-subgroup positions, broadcasts them, builds the encrypted indicator
// vector(s), and every user builds their location set. The intra-group
// broadcast bytes are recorded on the meter.
func (g *Group) BuildQuery(meter *cost.Meter) (*QueryMsg, []*LocationMsg, error) {
	start := time.Now()
	defer func() { meter.AddTime(cost.Users, time.Since(start)) }()

	p := g.Params
	if p.Variant == VariantNaive {
		return g.buildNaive(meter)
	}

	var seg int
	var xs, pos []int
	if g.CacheSets && g.cached != nil {
		seg, xs = g.cached.seg, g.cached.xs
	} else {
		// Line 3: pick the segment by the size-weighted distribution (Eqn 11).
		seg = sampleSegment(g.Rng, g.part.SegmentDist())
		// Lines 4–7: pick and broadcast per-subgroup positions.
		xs = make([]int, g.part.Alpha)
		pos = make([]int, g.part.Alpha)
		off := g.part.SegmentOffset(seg)
		for j := range xs {
			xs[j] = g.Rng.Intn(g.part.DBar[seg])
			pos[j] = off + xs[j]
		}
		// Broadcast pos_j to every non-coordinator user in subgroup j.
		for u := 1; u < p.N; u++ {
			meter.AddBytes(cost.IntraGroup, uvarintLen(uint64(pos[g.part.SubgroupOfUser(u)])))
		}
	}

	// Lines 9–10: indicator vector(s) at the query index (Eqn 12).
	qi := g.part.QueryIndex(seg, xs)
	msg := &QueryMsg{
		Variant: p.Variant, K: p.K, Agg: p.Agg,
		Theta0: p.Theta0, Gamma: p.Gamma, Eta: p.Eta, Phi: p.Phi,
		Sanitize: !p.NoSanitize, Include: p.IncludeIDs,
		PK:   g.encPublic().N,
		NBar: g.part.NBar, DBar: g.part.DBar, Delta: p.Delta,
	}
	var err error
	switch p.Variant {
	case VariantPPGNN:
		msg.V, err = g.encryptIndicator(g.part.DeltaPrime, qi, 1, meter)
		if err != nil {
			return nil, nil, err
		}
	case VariantOPT:
		omega := OptimalOmega(g.part.DeltaPrime)
		cols := (g.part.DeltaPrime + omega - 1) / omega
		msg.V1, err = g.encryptIndicator(cols, qi%cols, 1, meter)
		if err != nil {
			return nil, nil, err
		}
		msg.V2, err = g.encryptIndicator(omega, qi/cols, 2, meter)
		if err != nil {
			return nil, nil, err
		}
	}

	// Lines 12–15: each user builds a location set with the real location
	// at their subgroup's broadcast position (or reuses the cached one).
	var locs []*LocationMsg
	if g.CacheSets && g.cached != nil {
		locs = g.cached.locs
	} else {
		locs = make([]*LocationMsg, p.N)
		for u := 0; u < p.N; u++ {
			j := g.part.SubgroupOfUser(u)
			set := g.Gen.LocationSet(g.Rng, g.Locations[u], p.D, pos[j], p.Space)
			locs[u] = &LocationMsg{UserID: u, Set: set}
		}
		if g.CacheSets {
			g.cached = &cachedQuery{seg: seg, xs: xs, locs: locs}
		}
	}
	return msg, locs, nil
}

// buildNaive implements the strawman of Section 4: every user sends δ
// locations aligned at a common random position.
func (g *Group) buildNaive(meter *cost.Meter) (*QueryMsg, []*LocationMsg, error) {
	p := g.Params
	var pos int
	if g.CacheSets && g.cached != nil {
		pos = g.cached.pos
	} else {
		pos = g.Rng.Intn(p.Delta)
		for u := 1; u < p.N; u++ {
			meter.AddBytes(cost.IntraGroup, uvarintLen(uint64(pos)))
		}
	}
	msg := &QueryMsg{
		Variant: VariantNaive, K: p.K, Agg: p.Agg,
		Theta0: p.Theta0, Gamma: p.Gamma, Eta: p.Eta, Phi: p.Phi,
		Sanitize: !p.NoSanitize, Include: p.IncludeIDs,
		PK: g.encPublic().N, Delta: p.Delta,
	}
	var err error
	msg.V, err = g.encryptIndicator(p.Delta, pos, 1, meter)
	if err != nil {
		return nil, nil, err
	}
	var locs []*LocationMsg
	if g.CacheSets && g.cached != nil {
		locs = g.cached.locs
	} else {
		locs = make([]*LocationMsg, p.N)
		for u := 0; u < p.N; u++ {
			set := g.Gen.LocationSet(g.Rng, g.Locations[u], p.Delta, pos, p.Space)
			locs[u] = &LocationMsg{UserID: u, Set: set}
		}
		if g.CacheSets {
			g.cached = &cachedQuery{pos: pos, locs: locs}
		}
	}
	return msg, locs, nil
}

// encPublic returns the public key the indicator vectors are encrypted
// under: the coordinator's own key, or the shared threshold key.
func (g *Group) encPublic() *paillier.PublicKey {
	if g.encOverride != nil {
		return g.encOverride
	}
	return &g.Key.PublicKey
}

// encryptIndicator returns the element-wise encryption of the length-n
// indicator vector with a 1 at index one, under ε_degree. Pooled offline
// randomness (Precompute) is used when available (the pools are tied to
// the coordinator key, so threshold mode encrypts online).
func (g *Group) encryptIndicator(n, one, degree int, meter *cost.Meter) ([]*big.Int, error) {
	pre := g.pre1
	if degree == 2 {
		pre = g.pre2
	}
	if g.encOverride != nil {
		pre = nil
	}
	return encryptIndicatorVec(g.encPublic(), pre, n, one, degree, meter)
}

// encryptIndicatorVec is the shared indicator-encryption core used by
// Group (shared-memory protocol) and Coordinator (distributed sessions):
// element-wise encryption of the length-n indicator with a 1 at index
// one, under ε_degree of pk, drawing from pre when non-nil.
func encryptIndicatorVec(pk *paillier.PublicKey, pre *paillier.Precomputer, n, one, degree int, meter *cost.Meter) ([]*big.Int, error) {
	if one < 0 || one >= n {
		return nil, fmt.Errorf("core: indicator index %d outside [0,%d)", one, n)
	}
	bitVal := big.NewInt(0)
	oneVal := big.NewInt(1)
	ms := make([]*big.Int, n)
	for i := range ms {
		ms[i] = bitVal
	}
	ms[one] = oneVal
	// Fan the n encryptions across the process-default worker pool,
	// draining pooled offline randomness first when a Precomputer is
	// given (the pooled/online split feeds the paper's cost model).
	var (
		cts    []*paillier.Ciphertext
		pooled int
		err    error
	)
	if pre != nil {
		cts, pooled, err = pre.EncryptBatch(context.Background(), nil, nil, ms)
	} else {
		cts, err = pk.EncryptBatch(context.Background(), nil, nil, ms, degree)
	}
	if err != nil {
		return nil, fmt.Errorf("core: encrypting indicator: %w", err)
	}
	out := make([]*big.Int, n)
	for i, ct := range cts {
		out[i] = ct.C
	}
	meter.CountOp(fmt.Sprintf("enc%d", degree), int64(n-pooled))
	if pooled > 0 {
		meter.CountOp(fmt.Sprintf("enc%d-pooled", degree), int64(pooled))
	}
	return out, nil
}

// DecryptAnswer decrypts and decodes the LSP's answer, and accounts for the
// coordinator broadcasting the plaintext answer to the other users.
func (g *Group) DecryptAnswer(ans *AnswerMsg, meter *cost.Meter) ([]encode.Record, error) {
	start := time.Now()
	defer func() { meter.AddTime(cost.Users, time.Since(start)) }()

	wantDegree := 1
	if g.Params.Variant == VariantOPT {
		wantDegree = 2
	}
	if ans.Degree != wantDegree {
		return nil, fmt.Errorf("core: answer degree %d, want %d", ans.Degree, wantDegree)
	}
	ints, err := decryptAnswerInts(g.Key, ans)
	if err != nil {
		return nil, err
	}
	meter.CountOp(fmt.Sprintf("dec%d", ans.Degree), int64(len(ints)))

	codec := encode.Codec{ModulusBits: g.Key.N.BitLen(), IncludeID: g.Params.IncludeIDs}
	records, err := codec.Decode(ints)
	if err != nil {
		return nil, fmt.Errorf("core: decoding answer: %w", err)
	}
	// Coordinator broadcasts the plaintext answer to the other n−1 users.
	if g.Params.N > 1 {
		recBytes := 8
		if g.Params.IncludeIDs {
			recBytes = 16
		}
		meter.AddBytes(cost.IntraGroup, (g.Params.N-1)*(1+len(records)*recBytes))
	}
	return records, nil
}

// decryptAnswerInts decrypts the answer vector with the sole key, fanning
// the per-element CRT decryptions across the process-default worker pool
// (a double layered unwrap per element for the OPT degree-2 answer).
func decryptAnswerInts(key *paillier.PrivateKey, ans *AnswerMsg) ([]*big.Int, error) {
	cts := make([]*paillier.Ciphertext, len(ans.Cts))
	for i, c := range ans.Cts {
		cts[i] = &paillier.Ciphertext{C: c, S: ans.Degree}
	}
	var (
		ints []*big.Int
		err  error
	)
	if ans.Degree == 2 {
		ints, err = key.DecryptLayeredBatch(context.Background(), nil, cts, 2)
	} else {
		ints, err = key.DecryptBatch(context.Background(), nil, cts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: decrypting answer: %w", err)
	}
	return ints, nil
}

// Result is a decoded, dequantized query answer.
type Result struct {
	Records []encode.Record
	Points  []geo.Point
}

// Run executes a full query round trip: build (Algorithm 1), send, process
// (Algorithm 2, on the service), receive, decrypt. All communication and
// computation costs land on the meter (which may be nil).
func (g *Group) Run(svc Service, meter *cost.Meter) (*Result, error) {
	q, locs, err := g.BuildQuery(meter)
	if err != nil {
		return nil, err
	}
	meter.AddBytes(cost.UserToLSP, len(q.Marshal()))
	for _, lm := range locs {
		meter.AddBytes(cost.UserToLSP, len(lm.Marshal()))
	}
	ans, err := svc.Process(q, locs)
	if err != nil {
		return nil, err
	}
	meter.AddBytes(cost.LSPToUser, len(ans.Marshal()))
	records, err := g.DecryptAnswer(ans, meter)
	if err != nil {
		return nil, err
	}
	res := &Result{Records: records, Points: make([]geo.Point, len(records))}
	for i, r := range records {
		res.Points[i] = r.Point(g.Params.Space)
	}
	return res, nil
}

// sampleSegment draws a segment index from the distribution (Eqn 11).
func sampleSegment(rng *rand.Rand, dist []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

// uvarintLen returns the encoded size of v, used to cost tiny broadcasts.
func uvarintLen(v uint64) int {
	var w wire.Writer
	w.Uvarint(v)
	return w.Len()
}
