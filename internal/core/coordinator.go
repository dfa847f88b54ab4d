package core

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"time"

	"ppgnn/internal/cost"
	"ppgnn/internal/dummy"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/paillier"
	"ppgnn/internal/partition"
)

// Coordinator is the u_c side of a distributed group session: where Group
// models all n users in one process, Coordinator holds only its own
// location and key material and expects the other members' contributions
// to arrive over links (internal/group drives the exchange). Because the
// roster can shrink between rounds — members drop out and are replaced by
// a smaller re-partition — the partition program is re-solved per round
// via Plan rather than once at construction.
type Coordinator struct {
	Params Params    // template; Params.N is the full roster size
	Loc    geo.Point // the coordinator's own real location
	Gen    dummy.Generator
	Rng    *rand.Rand

	// Key is the coordinator's sole key pair (plain mode). In threshold
	// mode it is nil and TK/Share carry the shared key instead.
	Key *paillier.PrivateKey

	// TK and Share are set in threshold mode: the shared public key and
	// the coordinator's own key share (index 1).
	TK    *paillier.ThresholdKey
	Share *paillier.KeyShare

	KeygenTime time.Duration

	// Offline encryption-randomness pools (see Precompute). They hold
	// r^{N^s} factors for the shared public key, so they work in both
	// plain and threshold mode.
	pre1, pre2 *paillier.Precomputer
}

// NewCoordinator builds a plain-mode coordinator: it alone can decrypt,
// so a session needs member contributions but no partial decryptions.
func NewCoordinator(p Params, loc geo.Point, rng *rand.Rand) (*Coordinator, error) {
	c, err := newCoordinator(p, loc, rng)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	key, err := paillier.GenerateKey(nil, c.Params.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("core: generating key: %w", err)
	}
	if c.Params.ShortRandBits > 0 {
		if err := key.SetOptions(paillier.Options{ShortRandBits: c.Params.ShortRandBits}); err != nil {
			return nil, fmt.Errorf("core: enabling short-exponent randomness: %w", err)
		}
	}
	c.Key = key
	c.KeygenTime = time.Since(start)
	return c, nil
}

// NewThresholdCoordinator builds a threshold-mode coordinator for a
// (t, n) group. The coordinator deals the key and keeps share index 1;
// the returned shares (indices 2..n) belong to the members, in roster
// order. As in NewThresholdGroup, dealing stands in for a distributed
// key generation.
func NewThresholdCoordinator(p Params, loc geo.Point, rng *rand.Rand, t int) (*Coordinator, []*paillier.KeyShare, error) {
	c, err := newCoordinator(p, loc, rng)
	if err != nil {
		return nil, nil, err
	}
	if t < 2 || t > p.N {
		return nil, nil, fmt.Errorf("core: threshold t=%d outside [2,%d]", t, p.N)
	}
	sMax := 1
	if p.Variant == VariantOPT {
		sMax = 2
	}
	start := time.Now()
	tk, shares, err := paillier.GenerateThresholdKey(nil, p.KeyBits, p.N, t, sMax)
	if err != nil {
		return nil, nil, fmt.Errorf("core: threshold keygen: %w", err)
	}
	if c.Params.ShortRandBits > 0 {
		if err := tk.SetOptions(paillier.Options{ShortRandBits: c.Params.ShortRandBits}); err != nil {
			return nil, nil, fmt.Errorf("core: enabling short-exponent randomness: %w", err)
		}
	}
	c.KeygenTime = time.Since(start)
	c.TK = tk
	c.Share = shares[0]
	return c, shares[1:], nil
}

func newCoordinator(p Params, loc geo.Point, rng *rand.Rand) (*Coordinator, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.N < 2 {
		return nil, fmt.Errorf("core: a group session needs n ≥ 2, got %d", p.N)
	}
	if !p.Space.Contains(loc) {
		return nil, fmt.Errorf("core: coordinator location %v outside space", loc)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	// Fail early if the full-roster partition is infeasible; smaller
	// rosters are checked per Plan (Solve memoizes, so this is cheap).
	if p.Variant != VariantNaive {
		if _, err := partition.Solve(p.N, p.D, p.Delta); err != nil {
			return nil, err
		}
	}
	return &Coordinator{Params: p, Loc: loc, Gen: dummy.Uniform{}, Rng: rng}, nil
}

// DeltaPrime returns the candidate-query count δ' the LSP would process
// for a roster of n members (δ for the Naive variant).
func (c *Coordinator) DeltaPrime(n int) (int, error) {
	if c.Params.Variant == VariantNaive {
		return c.Params.Delta, nil
	}
	part, err := partition.Solve(n, c.Params.D, c.Params.Delta)
	if err != nil {
		return 0, err
	}
	return part.DeltaPrime, nil
}

// RoundPlan fixes one round's partition and hidden positions: which
// segment was drawn, the per-subgroup positions, and the roster size the
// partition was solved for. Every surviving member is addressed by a slot
// in [0, Size); the coordinator is always slot 0.
type RoundPlan struct {
	Size  int // roster size n' this round
	part  partition.Params
	seg   int
	xs    []int
	pos   []int // per-subgroup hidden position (index into the set)
	naive int   // common position, Naive variant
}

// Plan draws a fresh round plan for a roster of n members (coordinator
// included). It fails if the partition program is infeasible for n — the
// session layer treats that the same as a lost quorum, since no smaller
// roster will make δ reachable either.
func (c *Coordinator) Plan(n int) (*RoundPlan, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: cannot plan a round for %d members", n)
	}
	p := c.Params
	if p.Variant == VariantNaive {
		return &RoundPlan{Size: n, naive: c.Rng.Intn(p.Delta)}, nil
	}
	part, err := partition.Solve(n, p.D, p.Delta)
	if err != nil {
		return nil, fmt.Errorf("core: re-partitioning for %d members: %w", n, err)
	}
	plan := &RoundPlan{Size: n, part: part}
	plan.seg = sampleSegment(c.Rng, part.SegmentDist())
	plan.xs = make([]int, part.Alpha)
	plan.pos = make([]int, part.Alpha)
	off := part.SegmentOffset(plan.seg)
	for j := range plan.xs {
		plan.xs[j] = c.Rng.Intn(part.DBar[plan.seg])
		plan.pos[j] = off + plan.xs[j]
	}
	return plan, nil
}

// SetSize returns the location-set size each member must contribute.
func (pl *RoundPlan) SetSize(p Params) int {
	if p.Variant == VariantNaive {
		return p.Delta
	}
	return p.D
}

// PosFor returns the hidden position for the member at the given slot.
func (pl *RoundPlan) PosFor(slot int) int {
	if pl.pos == nil {
		return pl.naive
	}
	return pl.pos[pl.part.SubgroupOfUser(slot)]
}

// Request builds the ContribRequest for one slot of the round.
func (pl *RoundPlan) Request(p Params, session uint64, round, slot int) *ContribRequest {
	return &ContribRequest{
		Session: session,
		Round:   round,
		Slot:    slot,
		Pos:     pl.PosFor(slot),
		SetSize: pl.SetSize(p),
		Space:   p.Space,
	}
}

// encPublic returns the key the indicator vectors are encrypted under.
func (c *Coordinator) encPublic() *paillier.PublicKey {
	if c.TK != nil {
		return &c.TK.PublicKey
	}
	return &c.Key.PublicKey
}

// KeyBytes returns the wire width of the modulus in bytes.
func (c *Coordinator) KeyBytes() int {
	return (c.encPublic().N.BitLen() + 7) / 8
}

// Precompute fills the coordinator's encryption-randomness pools, as
// Group.Precompute does for the all-in-one-process model: the r^{N^s}
// factors depend only on the public key, so BuildQuery's indicator
// encryptions then pay only the cheap plaintext-dependent part online.
// The pools drain one factor per ciphertext; call again before later
// queries. It returns the offline time spent.
func (c *Coordinator) Precompute(count int) (time.Duration, error) {
	start := time.Now()
	var err error
	if c.pre1 == nil {
		if c.pre1, err = c.encPublic().NewPrecomputer(1); err != nil {
			return 0, err
		}
	}
	if err := c.pre1.Fill(nil, count); err != nil {
		return 0, err
	}
	if c.Params.Variant == VariantOPT {
		if c.pre2 == nil {
			if c.pre2, err = c.encPublic().NewPrecomputer(2); err != nil {
				return 0, err
			}
		}
		if err := c.pre2.Fill(nil, count); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// BuildQuery builds the QueryMsg for a round plan (lines 9–10 of
// Algorithm 1): the encrypted indicator vector(s) at the plan's query
// index. Location sets are NOT included — they arrive from the members.
func (c *Coordinator) BuildQuery(pl *RoundPlan, meter *cost.Meter) (*QueryMsg, error) {
	start := time.Now()
	defer func() { meter.AddTime(cost.Users, time.Since(start)) }()

	p := c.Params
	msg := &QueryMsg{
		Variant: p.Variant, K: p.K, Agg: p.Agg,
		Theta0: p.Theta0, Gamma: p.Gamma, Eta: p.Eta, Phi: p.Phi,
		Sanitize: !p.NoSanitize, Include: p.IncludeIDs,
		PK: c.encPublic().N, Delta: p.Delta,
	}
	var err error
	switch p.Variant {
	case VariantNaive:
		msg.V, err = encryptIndicatorVec(c.encPublic(), c.pre1, p.Delta, pl.naive, 1, meter)
		return msg, err
	case VariantPPGNN:
		msg.NBar, msg.DBar = pl.part.NBar, pl.part.DBar
		qi := pl.part.QueryIndex(pl.seg, pl.xs)
		msg.V, err = encryptIndicatorVec(c.encPublic(), c.pre1, pl.part.DeltaPrime, qi, 1, meter)
		return msg, err
	case VariantOPT:
		msg.NBar, msg.DBar = pl.part.NBar, pl.part.DBar
		qi := pl.part.QueryIndex(pl.seg, pl.xs)
		omega := OptimalOmega(pl.part.DeltaPrime)
		cols := (pl.part.DeltaPrime + omega - 1) / omega
		if msg.V1, err = encryptIndicatorVec(c.encPublic(), c.pre1, cols, qi%cols, 1, meter); err != nil {
			return nil, err
		}
		msg.V2, err = encryptIndicatorVec(c.encPublic(), c.pre2, omega, qi/cols, 2, meter)
		return msg, err
	}
	return nil, fmt.Errorf("core: unknown variant %d", p.Variant)
}

// OwnContribution builds the coordinator's own location set for slot 0.
func (c *Coordinator) OwnContribution(pl *RoundPlan) *LocationMsg {
	set := c.Gen.LocationSet(c.Rng, c.Loc, pl.SetSize(c.Params), pl.PosFor(0), c.Params.Space)
	return &LocationMsg{UserID: 0, Set: set}
}

// AnswerDegree returns the ciphertext degree the LSP's answer arrives at.
func (c *Coordinator) AnswerDegree() int {
	if c.Params.Variant == VariantOPT {
		return 2
	}
	return 1
}

// DecryptAnswer decrypts the answer with the coordinator's sole key
// (plain mode only).
func (c *Coordinator) DecryptAnswer(ans *AnswerMsg, meter *cost.Meter) ([]encode.Record, error) {
	if c.Key == nil {
		return nil, fmt.Errorf("core: threshold coordinator has no sole key")
	}
	if ans.Degree != c.AnswerDegree() {
		return nil, fmt.Errorf("core: answer degree %d, want %d", ans.Degree, c.AnswerDegree())
	}
	start := time.Now()
	defer func() { meter.AddTime(cost.Users, time.Since(start)) }()
	ints, err := decryptAnswerInts(c.Key, ans)
	if err != nil {
		return nil, err
	}
	meter.CountOp(fmt.Sprintf("dec%d", ans.Degree), int64(len(ints)))
	return c.DecodeInts(ints)
}

// PartialSelf produces the coordinator's own decryption-share values for
// a batch of degree-s ciphertexts (threshold mode): the same shape a
// member returns in a PartialMsg.
func (c *Coordinator) PartialSelf(degree int, cts []*big.Int) ([]*big.Int, error) {
	if c.TK == nil {
		return nil, fmt.Errorf("core: not a threshold coordinator")
	}
	in := make([]*paillier.Ciphertext, len(cts))
	for i, cv := range cts {
		in[i] = &paillier.Ciphertext{C: cv, S: degree}
	}
	dss, err := c.TK.PartialDecryptBatch(context.Background(), nil, c.Share, in)
	if err != nil {
		return nil, fmt.Errorf("core: partial decryption: %w", err)
	}
	out := make([]*big.Int, len(dss))
	for i, ds := range dss {
		out[i] = ds.Value
	}
	return out, nil
}

// CombinePartials recovers the plaintext of every ciphertext from the
// collected share vectors: shares maps key-share index → per-ciphertext
// share values (each the same length as cts). At least T entries are
// required; the T lowest indices are used, matching the deterministic
// share choice of ThresholdGroup.
func (c *Coordinator) CombinePartials(degree int, cts []*big.Int, shares map[int][]*big.Int, meter *cost.Meter) ([]*big.Int, error) {
	if c.TK == nil {
		return nil, fmt.Errorf("core: not a threshold coordinator")
	}
	if len(shares) < c.TK.T {
		return nil, fmt.Errorf("core: %d share vectors below threshold %d", len(shares), c.TK.T)
	}
	idxs := make([]int, 0, len(shares))
	for idx, vec := range shares {
		if len(vec) != len(cts) {
			return nil, fmt.Errorf("core: share vector %d has %d entries for %d ciphertexts", idx, len(vec), len(cts))
		}
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	idxs = idxs[:c.TK.T]

	start := time.Now()
	defer func() { meter.AddTime(cost.Users, time.Since(start)) }()
	sets := make([][]*paillier.DecryptionShare, len(cts))
	for i := range cts {
		ds := make([]*paillier.DecryptionShare, len(idxs))
		for j, idx := range idxs {
			ds[j] = &paillier.DecryptionShare{Index: idx, S: degree, Value: shares[idx][i]}
		}
		sets[i] = ds
	}
	out, err := c.TK.CombineBatch(context.Background(), nil, sets)
	if err != nil {
		return nil, fmt.Errorf("core: combining shares: %w", err)
	}
	meter.CountOp("threshold-dec", int64(len(cts)*c.TK.T))
	return out, nil
}

// DecodeInts decodes the decrypted answer integers into records.
func (c *Coordinator) DecodeInts(ints []*big.Int) ([]encode.Record, error) {
	codec := encode.Codec{ModulusBits: c.encPublic().N.BitLen(), IncludeID: c.Params.IncludeIDs}
	records, err := codec.Decode(ints)
	if err != nil {
		return nil, fmt.Errorf("core: decoding answer: %w", err)
	}
	return records, nil
}

// Finish dequantizes decoded records into a Result.
func (c *Coordinator) Finish(records []encode.Record) *Result {
	res := &Result{Records: records, Points: make([]geo.Point, len(records))}
	for i, r := range records {
		res.Points[i] = r.Point(c.Params.Space)
	}
	return res
}
