package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/paillier"
	"ppgnn/internal/parallel"
	"ppgnn/internal/sanitize"
)

// ledgerSample is one query's LSP work split into the stages of
// Algorithm 2, each timed from outside the program around a call into
// the public function that implements it.
type ledgerSample struct {
	process      time.Duration // LSP.Process at Workers=1
	candidates   time.Duration // partition.Params.Candidates
	search       time.Duration // gnn.MBM.SearchBounded, all candidates
	sanitize     time.Duration // sanitize.Config.Sanitize, all candidates
	encode       time.Duration // encode.Codec.Encode, all candidates
	selection    time.Duration // MatSelectBatch or LayeredSelectBatch
	rerand       time.Duration // the answer rerandomization, when the LSP does one
	scanned      int           // POIs scored by the kGNN searches
	samples      int           // Monte-Carlo samples the sanitizer drew
	truncated    int           // candidates whose answer the sanitizer cut
	nCandidates  int
	rows         int // answer-matrix height m
	selectTerms  int // ciphertext-power terms in the private selection
	byteIdentity bool
}

// stageSum is the replayed time of the stages LSP.Process runs.
func (s ledgerSample) stageSum() time.Duration {
	return s.candidates + s.search + s.sanitize + s.encode + s.selection
}

// ledgerLSP returns a copy of l for replays: one worker, so stage times
// add up to the Process time, and no rerandomization, so Process is
// deterministic and its answer can be compared byte for byte. The copy
// shares l's index.
func ledgerLSP(l *core.LSP) *core.LSP {
	cp := *l
	cp.Workers = 1
	cp.Rerandomize = false
	cp.RerandPools = nil
	cp.Coalesce = nil
	return &cp
}

// replay runs one query through the LSP's stages one public function at
// a time and requires the result to be byte-identical to LSP.Process's
// answer on the same ledger LSP. rerandPools, when non-nil, is the
// workload's rerandomization pool set: the replay then also times the
// rerandomization the serving LSP applies to its answer.
func replay(l *core.LSP, q *core.QueryMsg, locs []*core.LocationMsg, rerand bool, rerandPools *paillier.PoolSet) (ledgerSample, error) {
	var s ledgerSample
	if l.Tree() == nil {
		return s, fmt.Errorf("ledger: replay needs the single R-tree index")
	}
	start := time.Now()
	ref, err := l.Process(q, locs, nil)
	s.process = time.Since(start)
	if err != nil {
		return s, fmt.Errorf("ledger: LSP.Process: %w", err)
	}

	serial := parallel.New(1)
	ctx := context.Background()
	pk := paillier.NewPublicKey(q.PK)
	n := len(locs)
	ordered := make([][]geo.Point, n)
	for _, lm := range locs {
		ordered[lm.UserID] = lm.Set
	}

	t := time.Now()
	cands, err := candidateParams(q, n, len(locs[0].Set)).Candidates(ordered)
	s.candidates = time.Since(t)
	if err != nil {
		return s, fmt.Errorf("ledger: candidates: %w", err)
	}
	s.nCandidates = len(cands)

	mbm := &gnn.MBM{Tree: l.Tree(), Agg: q.Agg}
	sanCfg := sanitize.Config{Theta0: q.Theta0, Gamma: q.Gamma, Eta: q.Eta, Phi: q.Phi, Space: l.Space, Agg: q.Agg}
	codec := encode.Codec{ModulusBits: q.PK.BitLen(), IncludeID: q.Include}
	encoded := make([][]*big.Int, len(cands))
	for i, cand := range cands {
		t = time.Now()
		res, scanned := mbm.SearchBounded(cand, q.K, math.Inf(1))
		s.search += time.Since(t)
		s.scanned += scanned
		if q.Sanitize && n > 1 {
			rng := rand.New(rand.NewSource(l.SanitizeSeed + int64(i)))
			t = time.Now()
			cut := sanCfg.Sanitize(rng, res, cand)
			s.sanitize += time.Since(t)
			if len(res) > 1 {
				s.samples += sanCfg.SampleSize() * n
			}
			if len(cut) < len(res) {
				s.truncated++
			}
			res = cut
		}
		records := make([]encode.Record, len(res))
		for j, r := range res {
			records[j] = encode.RecordOf(r.Item.ID, r.Item.P, l.Space)
		}
		t = time.Now()
		encoded[i] = codec.Encode(records)
		s.encode += time.Since(t)
	}
	m := 0
	for _, ints := range encoded {
		m = max(m, len(ints))
	}
	for i := range encoded {
		encoded[i] = encode.Pad(encoded[i], m)
	}
	s.rows = m

	var (
		cts    []*paillier.Ciphertext
		degree int
	)
	t = time.Now()
	switch q.Variant {
	case core.VariantOPT:
		degree = 2
		cts, err = layeredSelect(ctx, serial, pk, q, encoded, m)
		s.selectTerms = m * (len(q.V1)*len(q.V2) + len(q.V2))
	default:
		degree = 1
		cts, err = matSelect(ctx, serial, pk, q, encoded, m)
		s.selectTerms = m * len(encoded)
	}
	s.selection = time.Since(t)
	if err != nil {
		return s, fmt.Errorf("ledger: selection: %w", err)
	}
	out := make([]*big.Int, len(cts))
	for i, ct := range cts {
		out[i] = ct.C
	}
	s.byteIdentity = bytes.Equal(core.NewAnswerMsg(pk, degree, out).Marshal(), ref.Marshal())

	if rerand {
		t = time.Now()
		if rerandPools != nil {
			pre, perr := rerandPools.For(pk, degree)
			if perr != nil {
				return s, fmt.Errorf("ledger: rerandomization pool: %w", perr)
			}
			_, _, err = pre.RerandomizeBatch(ctx, serial, nil, cts)
		} else {
			_, err = pk.RerandomizeBatch(ctx, serial, nil, cts)
		}
		s.rerand = time.Since(t)
		if err != nil {
			return s, fmt.Errorf("ledger: rerandomization: %w", err)
		}
	}
	return s, nil
}

// matSelect is the PPGNN private selection A ⨂ [v] over the m × δ'
// answer matrix.
func matSelect(ctx context.Context, pl *parallel.Pool, pk *paillier.PublicKey, q *core.QueryMsg, encoded [][]*big.Int, m int) ([]*paillier.Ciphertext, error) {
	v := make([]*paillier.Ciphertext, len(q.V))
	for i, c := range q.V {
		v[i] = &paillier.Ciphertext{C: c, S: 1}
	}
	rows := make([][]*big.Int, m)
	for i := range rows {
		rows[i] = make([]*big.Int, len(encoded))
		for t := range encoded {
			rows[i][t] = encoded[t][i]
		}
	}
	return pk.MatSelectBatch(ctx, pl, rows, v)
}

// layeredSelect is the PPGNN-OPT two-phase selection, with the answer
// matrix padded by zero columns to ω·⌈δ'/ω⌉.
func layeredSelect(ctx context.Context, pl *parallel.Pool, pk *paillier.PublicKey, q *core.QueryMsg, encoded [][]*big.Int, m int) ([]*paillier.Ciphertext, error) {
	v1 := make([]*paillier.Ciphertext, len(q.V1))
	for i, c := range q.V1 {
		v1[i] = &paillier.Ciphertext{C: c, S: 1}
	}
	v2 := make([]*paillier.Ciphertext, len(q.V2))
	for i, c := range q.V2 {
		v2[i] = &paillier.Ciphertext{C: c, S: 2}
	}
	zero := make([]*big.Int, m)
	for i := range zero {
		zero[i] = new(big.Int)
	}
	for len(encoded) < len(v1)*len(v2) {
		encoded = append(encoded, zero)
	}
	return pk.LayeredSelectBatch(ctx, pl, encoded, v1, v2)
}
