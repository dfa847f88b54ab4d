package paillier

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"

	"ppgnn/internal/parallel"
)

// Batch variants of the hot operations. Every phase of PPGNN that touches
// more than one ciphertext — indicator encryption, the LSP's ⊙ and ⨂
// selections over the δ' candidates, CRT decryption of the answer vector,
// threshold share production and combination — is a set of independent
// modular exponentiations, so the batch forms below fan the work across a
// parallel.Pool (nil = the process default, sized by GOMAXPROCS or the
// -workers flag).
//
// Two invariants make the batch forms drop-in replacements for the serial
// loops (DESIGN.md §10):
//
//   - Determinism: randomness is drawn from the io.Reader serially, in
//     index order, BEFORE any fan-out. Seeded test readers are not safe
//     for concurrent use, and serial draws mean a batch call consumes the
//     reader exactly like the serial loop it replaces — outputs are
//     byte-identical for the same seed, at any worker count. Pooled
//     Precomputer factors are likewise taken in index order (LIFO, like
//     repeated take calls).
//
//   - Error discipline: inputs are validated up front, so a malformed
//     element fails the whole batch before any randomness is consumed;
//     mid-batch failures cancel remaining work and the first error is
//     returned, with every worker joined before the call returns.
//
// Concurrent refill ordering contract (ISSUE 10): a Precomputer may be
// refilled (FillCtx, typically from the background refiller) while
// consumers encrypt from it. Both sides are atomic with respect to the
// pool mutex — takeN pops all its factors in one critical section, and
// FillCtx appends its whole chunk in one critical section AFTER the
// exponentiations are done — so a consuming batch observes either none
// or all of any concurrent fill, never a partial one. Within a batch,
// pooled factors are always the LIFO sequence repeated take calls would
// return from the same pool state: a concurrent fill can change WHICH
// factors a racing batch receives (the newest at its takeN instant),
// but never their relative order, split a fill across two batches'
// prefixes, or hand the same factor to two consumers. With the refiller
// paused, EncryptBatch output is byte-identical to the serial loop for
// the same pool state and reader seed at any worker count.

// errNilElement keeps batch validation messages uniform.
var errNilElement = errors.New("paillier: nil element in batch")

// EncryptBatch encrypts every plaintext of ms under ε_s in parallel,
// returning ciphertexts in input order. Equivalent to calling Encrypt in
// a loop (including reader consumption order); see the package notes
// above for the determinism contract.
func (pk *PublicKey) EncryptBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, ms []*big.Int, s int) ([]*Ciphertext, error) {
	if s < 1 || s > MaxS {
		return nil, fmt.Errorf("paillier: degree s=%d out of range [1,%d]", s, MaxS)
	}
	ns := pk.NS(s)
	for i, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("paillier: plaintext %d: %w", i, errNilElement)
		}
		if m.Sign() < 0 || m.Cmp(ns) >= 0 {
			return nil, fmt.Errorf("paillier: plaintext %d out of range [0, N^%d)", i, s)
		}
	}
	// Serial randomness, then parallel exponentiation. The mode is
	// loaded once so every draw and factor of this batch agrees.
	sr := pk.shortRand.Load()
	rs := make([]*big.Int, len(ms))
	for i := range ms {
		r, err := pk.drawEncRand(random, sr)
		if err != nil {
			return nil, fmt.Errorf("paillier: drawing randomness: %w", err)
		}
		rs[i] = r
	}
	pk.warmEnc(s)
	out := make([]*Ciphertext, len(ms))
	err := pl.ForEach(ctx, len(ms), func(i int) error {
		out[i] = pk.encryptWith(ms[i], rs[i], sr, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// warmEnc materializes the caches an ε_s encryption reads (the kernel
// contexts for N^i, the inverse factorials, the key holder's CRT context,
// and the short-rand fixed-base table when that mode is on), so
// fanned-out workers hit lock-free read paths instead of serializing on
// first-use population.
func (pk *PublicKey) warmEnc(s int) {
	pk.NS(s + 1)
	pk.invFactorial(s)
	if sr := pk.shortRand.Load(); sr != nil {
		sr.table(pk, s)
	} else if pk.owner != nil {
		pk.owner.crt(s)
	}
}

// RerandomizeBatch re-randomizes every ciphertext in parallel, consuming
// the reader exactly like a serial Rerandomize loop.
func (pk *PublicKey) RerandomizeBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, cs []*Ciphertext) ([]*Ciphertext, error) {
	var degrees [MaxS + 1]bool
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
		if c.S < 1 || c.S > MaxS {
			return nil, fmt.Errorf("paillier: ciphertext %d degree %d out of range", i, c.S)
		}
		degrees[c.S] = true
	}
	sr := pk.shortRand.Load()
	rs := make([]*big.Int, len(cs))
	for i := range cs {
		r, err := pk.drawEncRand(random, sr)
		if err != nil {
			return nil, fmt.Errorf("paillier: drawing randomness: %w", err)
		}
		rs[i] = r
	}
	for s, present := range degrees {
		if present {
			pk.warmEnc(s)
		}
	}
	zero := new(big.Int)
	out := make([]*Ciphertext, len(cs))
	err := pl.ForEach(ctx, len(cs), func(i int) error {
		z := pk.encryptWith(zero, rs[i], sr, cs[i].S)
		mRerandomize.Inc()
		ct, err := pk.Add(cs[i], z)
		if err != nil {
			return fmt.Errorf("paillier: rerandomizing %d: %w", i, err)
		}
		out[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptBatch decrypts every ciphertext in parallel (each one on the CRT
// path), returning plaintexts in input order.
func (sk *PrivateKey) DecryptBatch(ctx context.Context, pl *parallel.Pool, cs []*Ciphertext) ([]*big.Int, error) {
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
		if c.S < 1 || c.S > MaxS {
			return nil, fmt.Errorf("paillier: ciphertext %d degree %d out of range", i, c.S)
		}
		sk.warmDec(c.S)
	}
	out := make([]*big.Int, len(cs))
	err := pl.ForEach(ctx, len(cs), func(i int) error {
		m, err := sk.Decrypt(cs[i])
		if err != nil {
			return fmt.Errorf("paillier: decrypting %d: %w", i, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptLayeredBatch peels `layers` nested encryptions off every
// ciphertext in parallel — the OPT answer vector's [[ [a] ]] unwrap.
func (sk *PrivateKey) DecryptLayeredBatch(ctx context.Context, pl *parallel.Pool, cs []*Ciphertext, layers int) ([]*big.Int, error) {
	if layers < 1 {
		return nil, errors.New("paillier: layers must be >= 1")
	}
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
		for s := c.S; s >= 1 && s > c.S-layers; s-- {
			sk.warmDec(s)
		}
	}
	out := make([]*big.Int, len(cs))
	err := pl.ForEach(ctx, len(cs), func(i int) error {
		m, err := sk.DecryptLayered(cs[i], layers)
		if err != nil {
			return fmt.Errorf("paillier: decrypting %d: %w", i, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// warmDec materializes the locked per-degree caches decryption reads (CRT
// context, λ^{-1}, N^i, inverse factorials).
func (sk *PrivateKey) warmDec(s int) {
	if s < 1 || s > MaxS {
		return
	}
	sk.crt(s)
	sk.invLambda(s)
	sk.warmEnc(s)
}

// DotProductBatch computes one ⊙ per coefficient row against the shared
// encrypted vector v, in parallel, results in row order.
func (pk *PublicKey) DotProductBatch(ctx context.Context, pl *parallel.Pool, rows [][]*big.Int, v []*Ciphertext) ([]*Ciphertext, error) {
	if len(v) > 0 {
		pk.warmEnc(v[0].S)
	}
	out := make([]*Ciphertext, len(rows))
	err := pl.ForEach(ctx, len(rows), func(i int) error {
		ct, err := pk.DotProduct(rows[i], v)
		if err != nil {
			return fmt.Errorf("paillier: row %d: %w", i, err)
		}
		out[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatSelectBatch is MatSelect (⨂, Theorem 3.1) with the independent row
// dot-products fanned across the pool.
func (pk *PublicKey) MatSelectBatch(ctx context.Context, pl *parallel.Pool, a [][]*big.Int, v []*Ciphertext) ([]*Ciphertext, error) {
	mMatSelect.Inc()
	return pk.DotProductBatch(ctx, pl, a, v)
}

// LayeredSelectBatch runs the two-phase ε1/ε2 private selection of PPGNN-OPT
// (paper Section 6) over all m answer rows in parallel. cols is the padded
// answer matrix given column-major — len(v1)·len(v2) columns of height m —
// v1 the ε_1 within-block indicator over len(v1) columns, v2 the ε_2 block
// indicator over len(v2) blocks. For each row, phase 1 selects a column
// inside every block with v1; phase 2 selects the block with v2, treating
// the phase-1 ε_1 ciphertexts as ε_2 plaintexts. The result is m ε_2
// ciphertexts, in row order.
func (pk *PublicKey) LayeredSelectBatch(ctx context.Context, pl *parallel.Pool, cols [][]*big.Int, v1, v2 []*Ciphertext) ([]*Ciphertext, error) {
	omega, width := len(v2), len(v1)
	if omega == 0 || width == 0 {
		return nil, errors.New("paillier: empty selection indicator")
	}
	if len(cols) != omega*width {
		return nil, fmt.Errorf("paillier: %d columns for a %d×%d layered selection", len(cols), omega, width)
	}
	for i, c := range v1 {
		if c == nil || c.S != 1 {
			return nil, fmt.Errorf("paillier: v1[%d] is not an ε_1 ciphertext", i)
		}
	}
	for i, c := range v2 {
		if c == nil || c.S != 2 {
			return nil, fmt.Errorf("paillier: v2[%d] is not an ε_2 ciphertext", i)
		}
	}
	m := 0
	for i, col := range cols {
		if i == 0 {
			m = len(col)
		} else if len(col) != m {
			return nil, fmt.Errorf("paillier: column %d height %d != %d", i, len(col), m)
		}
	}
	pk.warmEnc(2)
	out := make([]*Ciphertext, m)
	err := pl.ForEach(ctx, m, func(i int) error {
		phase1 := make([]*big.Int, omega)
		row := make([]*big.Int, width)
		for b := 0; b < omega; b++ {
			for c := 0; c < width; c++ {
				row[c] = cols[b*width+c][i]
			}
			ct, err := pk.DotProduct(row, v1)
			if err != nil {
				return fmt.Errorf("paillier: phase-1 selection row %d: %w", i, err)
			}
			phase1[b] = ct.C
		}
		ct, err := pk.DotProduct(phase1, v2)
		if err != nil {
			return fmt.Errorf("paillier: phase-2 selection row %d: %w", i, err)
		}
		out[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PartialDecryptBatch produces this holder's decryption share for every
// ciphertext, in parallel, in input order.
func (tk *ThresholdKey) PartialDecryptBatch(ctx context.Context, pl *parallel.Pool, share *KeyShare, cs []*Ciphertext) ([]*DecryptionShare, error) {
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
	}
	out := make([]*DecryptionShare, len(cs))
	err := pl.ForEach(ctx, len(cs), func(i int) error {
		ds, err := tk.PartialDecrypt(share, cs[i])
		if err != nil {
			return fmt.Errorf("paillier: partial decryption %d: %w", i, err)
		}
		out[i] = ds
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CombineBatch combines one share set per ciphertext, in parallel, in
// input order. Each inner slice must hold at least T shares.
func (tk *ThresholdKey) CombineBatch(ctx context.Context, pl *parallel.Pool, shareSets [][]*DecryptionShare) ([]*big.Int, error) {
	tk.warmEnc(tk.SMax)
	out := make([]*big.Int, len(shareSets))
	err := pl.ForEach(ctx, len(shareSets), func(i int) error {
		m, err := tk.Combine(shareSets[i])
		if err != nil {
			return fmt.Errorf("paillier: combining shares for element %d: %w", i, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// takeN pops up to n pooled factors in LIFO order — the order n repeated
// take calls would return them — so batch encryption consumes the pool
// exactly like the serial loop.
func (p *Precomputer) takeN(n int) []*big.Int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > len(p.pool) {
		n = len(p.pool)
	}
	out := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		out[i] = p.pool[len(p.pool)-1-i]
	}
	p.pool = p.pool[:len(p.pool)-n]
	p.depth.Add(int64(-n))
	p.taken.Add(int64(n))
	return out
}

// EncryptBatch encrypts every plaintext using pooled randomness factors
// while they last, then online randomness drawn serially from random, and
// returns the ciphertexts in input order plus how many came from the pool
// (the cost meters' pool/online split). Output bytes match a serial loop
// of Precomputer.Encrypt calls for the same pool state and reader seed.
func (p *Precomputer) EncryptBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, ms []*big.Int) ([]*Ciphertext, int, error) {
	ns := p.pk.NS(p.s)
	for i, m := range ms {
		if m == nil {
			return nil, 0, fmt.Errorf("paillier: plaintext %d: %w", i, errNilElement)
		}
		if m.Sign() < 0 || m.Cmp(ns) >= 0 {
			return nil, 0, fmt.Errorf("paillier: plaintext %d out of range [0, N^%d)", i, p.s)
		}
	}
	pooled := p.takeN(len(ms))
	sr := p.pk.shortRand.Load()
	online := make([]*big.Int, 0, len(ms)-len(pooled))
	for range ms[len(pooled):] {
		r, err := p.pk.drawEncRand(random, sr)
		if err != nil {
			// The popped factors are dropped, never reused: losing pooled
			// randomness is safe, reusing it would break semantic security.
			return nil, 0, fmt.Errorf("paillier: drawing randomness: %w", err)
		}
		online = append(online, r)
	}
	p.pk.warmEnc(p.s)
	mod := p.pk.NS(p.s + 1)
	out := make([]*Ciphertext, len(ms))
	err := pl.ForEach(ctx, len(ms), func(i int) error {
		if i < len(pooled) {
			c := p.pk.onePlusNExp(ms[i], p.s)
			c.Mul(c, pooled[i])
			c.Mod(c, mod)
			mEncPooled.Inc()
			countEnc(p.s)
			out[i] = &Ciphertext{C: c, S: p.s}
			return nil
		}
		mEncOnline.Inc()
		out[i] = p.pk.encryptWith(ms[i], online[i-len(pooled)], sr, p.s)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, len(pooled), nil
}

// RerandomizeBatch re-randomizes every ciphertext using pooled factors
// while they last, then online randomness drawn serially from random,
// returning fresh ciphertexts in input order plus how many factors came
// from the pool. Every input must be a degree-p.s ciphertext. Because
// an encryption of zero under factor r^{N^s} IS the factor, the pooled
// path costs one modular multiplication per ciphertext — this is what
// lets a refilled per-tenant pool keep server-side rerandomization off
// the online critical path (DESIGN.md §15).
func (p *Precomputer) RerandomizeBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, cs []*Ciphertext) ([]*Ciphertext, int, error) {
	for i, c := range cs {
		if c == nil {
			return nil, 0, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
		if c.S != p.s {
			return nil, 0, fmt.Errorf("paillier: ciphertext %d degree %d does not match pool degree %d", i, c.S, p.s)
		}
	}
	pooled := p.takeN(len(cs))
	sr := p.pk.shortRand.Load()
	online := make([]*big.Int, 0, len(cs)-len(pooled))
	for range cs[len(pooled):] {
		r, err := p.pk.drawEncRand(random, sr)
		if err != nil {
			return nil, 0, fmt.Errorf("paillier: drawing randomness: %w", err)
		}
		online = append(online, r)
	}
	p.pk.warmEnc(p.s)
	mod := p.pk.NS(p.s + 1)
	zero := new(big.Int)
	out := make([]*Ciphertext, len(cs))
	err := pl.ForEach(ctx, len(cs), func(i int) error {
		mRerandomize.Inc()
		if i < len(pooled) {
			c := new(big.Int).Mul(cs[i].C, pooled[i])
			c.Mod(c, mod)
			mEncPooled.Inc()
			countEnc(p.s)
			mAdd.Inc()
			out[i] = &Ciphertext{C: c, S: p.s}
			return nil
		}
		mEncOnline.Inc()
		z := p.pk.encryptWith(zero, online[i-len(pooled)], sr, p.s)
		ct, err := p.pk.Add(cs[i], z)
		if err != nil {
			return fmt.Errorf("paillier: rerandomizing %d: %w", i, err)
		}
		out[i] = ct
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, len(pooled), nil
}

// FillCtx adds n randomness factors to the pool, fanning the factor
// exponentiations — the entire cost of the offline phase — across the
// pool's workers. Draws stay serial, so the pool contents for a seeded
// reader are independent of the worker count. In short-rand mode the
// factors are table-backed (h^{N^s})^x values; either way the pooled
// value is a complete r^{N^s} mod N^{s+1} factor.
func (p *Precomputer) FillCtx(ctx context.Context, pl *parallel.Pool, random io.Reader, n int) error {
	if n <= 0 {
		return nil
	}
	sr := p.pk.shortRand.Load()
	rs := make([]*big.Int, n)
	for i := range rs {
		r, err := p.pk.drawEncRand(random, sr)
		if err != nil {
			return fmt.Errorf("paillier: precomputing randomness: %w", err)
		}
		rs[i] = r
	}
	p.pk.warmEnc(p.s)
	fresh := make([]*big.Int, n)
	err := pl.MapChunked(ctx, n, 1, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			fresh[i] = p.pk.encFactor(rs[i], sr, p.s)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.pool = append(p.pool, fresh...)
	p.depth.Add(int64(n))
	p.mu.Unlock()
	mPoolFilled.Add(int64(n))
	return nil
}
