package paillier

import (
	"math/big"

	"ppgnn/internal/modmath"
)

// CRT acceleration. The holder of the private key knows N = pq and can
// compute any exponentiation mod N^{s+1} modulo p^{s+1} and q^{s+1}
// separately, then recombine: two half-width exponentiations instead of
// one full-width one.
//
//   - Decryption: c^λ mod N^{s+1}, roughly halving decryption time (see
//     BenchmarkDecrypt in the tests).
//   - Encryption: the randomness factor r^{N^s} mod N^{s+1}. Here the
//     exponent shrinks too: r is a unit mod N, so modulo p^{s+1} its
//     order divides φ(p^{s+1}) = p^s(p−1), and N^s can be reduced modulo
//     that (likewise for q). Both halves are exact residues of the
//     full-width factor, and the recombination is unique in
//     [0, N^{s+1}), so the factor — and every ciphertext — is the same
//     integer the public path computes. Only the public half of a key
//     generated in this process takes this path (PublicKey.owner); keys
//     rebuilt from N, such as the LSP's, and threshold keys cannot.

// crtCtx caches the per-degree CRT moduli (as kernel contexts, so the
// half-width exponentiations share the same cached-modulus machinery as
// every other hot path), the recombination coefficient, and the reduced
// encryption exponents.
type crtCtx struct {
	pCtx *modmath.Ctx // modulus p^{s+1}
	qCtx *modmath.Ctx // modulus q^{s+1}
	coef *big.Int     // (p^{s+1})^{-1} mod q^{s+1}
	pExp *big.Int     // N^s mod p^s(p−1)
	qExp *big.Int     // N^s mod q^s(q−1)
}

// crt returns the CRT context for degree s (1 ≤ s ≤ MaxS), built once
// per key and read lock-free afterwards.
func (sk *PrivateKey) crt(s int) *crtCtx {
	if ctx := sk.crtCtxs[s].Load(); ctx != nil {
		return ctx
	}
	deg := big.NewInt(int64(s))
	ns := new(big.Int).Exp(sk.N, deg, nil)
	pPow := new(big.Int).Exp(sk.P, deg, nil) // p^s, then p^{s+1}
	qPow := new(big.Int).Exp(sk.Q, deg, nil)
	pOrd := new(big.Int).Mul(pPow, new(big.Int).Sub(sk.P, one))
	qOrd := new(big.Int).Mul(qPow, new(big.Int).Sub(sk.Q, one))
	pPow.Mul(pPow, sk.P)
	qPow.Mul(qPow, sk.Q)
	coef := new(big.Int).ModInverse(pPow, qPow)
	if coef == nil {
		panic("paillier: p^{s+1} not invertible mod q^{s+1}")
	}
	ctx := &crtCtx{
		pCtx: modmath.MustCtx(pPow),
		qCtx: modmath.MustCtx(qPow),
		coef: coef,
		pExp: new(big.Int).Mod(ns, pOrd),
		qExp: new(big.Int).Mod(ns, qOrd),
	}
	// First writer wins so all callers share one context.
	if !sk.crtCtxs[s].CompareAndSwap(nil, ctx) {
		ctx = sk.crtCtxs[s].Load()
	}
	return ctx
}

// recombine returns the u in [0, N^{s+1}) with u ≡ up (mod p^{s+1}) and
// u ≡ uq (mod q^{s+1}).
func (ctx *crtCtx) recombine(up, uq *big.Int) *big.Int {
	pPow, qPow := ctx.pCtx.M, ctx.qCtx.M
	// u = up + p^{s+1} · ((uq − up) · coef mod q^{s+1})
	t := new(big.Int).Sub(uq, up)
	t.Mod(t, qPow)
	t.Mul(t, ctx.coef)
	t.Mod(t, qPow)
	t.Mul(t, pPow)
	t.Add(t, up)
	return t
}

// expLambdaCRT computes c^λ mod N^{s+1} via the factorization.
func (sk *PrivateKey) expLambdaCRT(c *big.Int, s int) *big.Int {
	ctx := sk.crt(s)
	up := ctx.pCtx.Exp(new(big.Int).Mod(c, ctx.pCtx.M), sk.lambda)
	uq := ctx.qCtx.Exp(new(big.Int).Mod(c, ctx.qCtx.M), sk.lambda)
	return ctx.recombine(up, uq)
}

// encFactorCRT computes the encryption factor r^{N^s} mod N^{s+1} for a
// unit r via the factorization, with the exponent reduced per prime.
func (sk *PrivateKey) encFactorCRT(r *big.Int, s int) *big.Int {
	ctx := sk.crt(s)
	up := ctx.pCtx.Exp(new(big.Int).Mod(r, ctx.pCtx.M), ctx.pExp)
	uq := ctx.qCtx.Exp(new(big.Int).Mod(r, ctx.qCtx.M), ctx.qExp)
	return ctx.recombine(up, uq)
}
