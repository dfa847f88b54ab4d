// Package paillier implements the generalized Paillier cryptosystem of
// Damgård and Jurik ("A Generalisation, a Simplification and Some
// Applications of Paillier's Probabilistic Public-Key System", PKC 2001),
// written ε_s in the paper. For s = 1 it is exactly Paillier's scheme.
//
// For a modulus N = pq, plaintexts live in Z_{N^s} and ciphertexts in
// Z*_{N^{s+1}}:
//
//	Enc_s(m; r) = (1+N)^m · r^{N^s}  mod N^{s+1}
//
// The scheme is additively homomorphic:
//
//	Enc(m1) · Enc(m2)   = Enc(m1 + m2)        (⊕, Add)
//	Enc(m)^x            = Enc(x·m)            (⊗, MulPlain)
//	Π Enc(v_i)^{x_i}    = Enc(Σ x_i·v_i)      (⊙, DotProduct)
//
// A distinguishing feature used by PPGNN-OPT (paper Section 6) is layering:
// a ciphertext of ε_1 is an element of Z_{N^2} and therefore a valid
// plaintext of ε_2, so it can be encrypted again under the same key pair
// and privately selected a second time.
//
// The implementation uses only the standard library (math/big, crypto/rand).
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"ppgnn/internal/modmath"
)

var one = big.NewInt(1)

// MaxS is the largest ciphertext degree supported. PPGNN needs s ≤ 2; a few
// more are supported so the generalized scheme is usable on its own.
const MaxS = 8

// kernelDisabled gates the modmath fast paths (MultiExp in ⊙/⨂ and the
// threshold combine). It exists for the -kernel-gate experiment and the
// kernel-equivalence tests, which measure and pin the kernel against the
// reference loops; production code never flips it. Both paths return
// byte-identical results.
var kernelDisabled atomic.Bool

// SetKernel enables (true, the default) or disables the modmath
// multi-exponentiation fast paths, returning the previous setting. Only
// benchmarks and equivalence tests should call this; flipping it while
// operations are in flight is safe (it is one atomic) but makes timings
// meaningless.
func SetKernel(on bool) (prev bool) {
	return !kernelDisabled.Swap(!on)
}

func kernelOn() bool { return !kernelDisabled.Load() }

// PublicKey holds the public modulus N and cached powers of N used by the
// homomorphic operations.
type PublicKey struct {
	N *big.Int // product of two large primes

	mu     sync.Mutex
	npow   []*big.Int // npow[i] = N^i, npow[0] = 1
	invfac []*big.Int // invfac[i] = (i!)^{-1} mod N^{MaxS+1}

	// ctxs[s] is the kernel context for modulus N^s, built once per key
	// and read lock-free on every operation (NS and Ctx fast paths).
	ctxs [MaxS + 2]atomic.Pointer[modmath.Ctx]
	// shortRand, when non-nil, holds the Options.ShortRandBits state:
	// the fixed base h and its per-degree power tables.
	shortRand atomic.Pointer[shortRandState]
	// owner is the private key this public key is the public half of,
	// set only by GenerateKey. Encryption under it computes the r^{N^s}
	// factor through the factorization (crt.go). A key rebuilt from N
	// has none, and no encoding of a PublicKey carries it.
	owner *PrivateKey
}

// PrivateKey holds the factorization-derived trapdoor.
type PrivateKey struct {
	PublicKey
	P, Q   *big.Int
	lambda *big.Int // lcm(p-1, q-1)

	mu      sync.Mutex
	invLam  []*big.Int                       // invLam[s] = lambda^{-1} mod N^s
	crtCtxs [MaxS + 1]atomic.Pointer[crtCtx] // per-degree CRT contexts
}

// Ciphertext is an element of Z*_{N^{S+1}} encrypting a plaintext in Z_{N^S}.
type Ciphertext struct {
	C *big.Int
	S int
}

// GenerateKey creates a key pair whose modulus N has the given bit size.
// Following the paper's setup, bits=1024 is the common choice; tests may use
// smaller keys since correctness is size-independent. random defaults to
// crypto/rand.Reader when nil.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 16 {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)
		// Equal-bit-length distinct primes guarantee gcd(lambda, N) = 1,
		// but verify anyway: decryption requires lambda invertible mod N^s.
		if new(big.Int).GCD(nil, nil, lambda, n).Cmp(one) != 0 {
			continue
		}
		key := &PrivateKey{
			PublicKey: PublicKey{N: n},
			P:         p,
			Q:         q,
			lambda:    lambda,
		}
		key.owner = key
		return key, nil
	}
}

// NewPublicKey reconstructs a public key from its modulus, e.g. after
// receiving it over the wire.
func NewPublicKey(n *big.Int) *PublicKey {
	return &PublicKey{N: new(big.Int).Set(n)}
}

// NS returns N^s. It panics if s is out of range. After the first call
// for a given s the lookup is lock- and allocation-free (one atomic
// load off the kernel context — TestNSLookupZeroAllocs pins this), so
// hot paths can call it per operation instead of caching the modulus
// themselves.
func (pk *PublicKey) NS(s int) *big.Int {
	if s == 0 {
		return one
	}
	return pk.Ctx(s).M
}

// Ctx returns the modmath kernel context for modulus N^s (s ≥ 1),
// built once per key and shared by every operation on that modulus.
func (pk *PublicKey) Ctx(s int) *modmath.Ctx {
	if s < 1 || s > MaxS+1 {
		panic(fmt.Sprintf("paillier: N^%d out of supported range", s))
	}
	if ctx := pk.ctxs[s].Load(); ctx != nil {
		return ctx
	}
	pk.mu.Lock()
	m := pk.nsLocked(s)
	pk.mu.Unlock()
	ctx := modmath.MustCtx(m)
	// First writer wins so all callers share one context.
	if !pk.ctxs[s].CompareAndSwap(nil, ctx) {
		ctx = pk.ctxs[s].Load()
	}
	return ctx
}

func (pk *PublicKey) nsLocked(s int) *big.Int {
	if pk.npow == nil {
		pk.npow = []*big.Int{big.NewInt(1), new(big.Int).Set(pk.N)}
	}
	for len(pk.npow) <= s {
		next := new(big.Int).Mul(pk.npow[len(pk.npow)-1], pk.N)
		pk.npow = append(pk.npow, next)
	}
	return pk.npow[s]
}

// invFactorial returns (i!)^{-1} mod N^{MaxS+1}.
func (pk *PublicKey) invFactorial(i int) *big.Int {
	pk.mu.Lock()
	defer pk.mu.Unlock()
	if pk.invfac == nil {
		pk.invfac = []*big.Int{big.NewInt(1), big.NewInt(1)}
	}
	mod := pk.nsLocked(MaxS + 1)
	for len(pk.invfac) <= i {
		k := int64(len(pk.invfac))
		invK := new(big.Int).ModInverse(big.NewInt(k), mod)
		if invK == nil {
			// Impossible for a well-formed key: k < p,q.
			panic("paillier: factorial not invertible mod N")
		}
		next := new(big.Int).Mul(pk.invfac[len(pk.invfac)-1], invK)
		next.Mod(next, mod)
		pk.invfac = append(pk.invfac, next)
	}
	return pk.invfac[i]
}

// onePlusNExp computes (1+N)^m mod N^{s+1} via the binomial expansion
// Σ_{i=0}^{s} C(m,i)·N^i, which needs only s modular multiplications
// instead of a full |m|-bit exponentiation.
func (pk *PublicKey) onePlusNExp(m *big.Int, s int) *big.Int {
	mod := pk.NS(s + 1)
	res := big.NewInt(1)
	term := new(big.Int).Set(one) // running Π_{j=0}^{i-1} (m-j) mod N^{s+1}
	mj := new(big.Int)
	tmp := new(big.Int)
	for i := 1; i <= s; i++ {
		mj.Sub(m, big.NewInt(int64(i-1)))
		term.Mul(term, mj)
		term.Mod(term, mod)
		// C(m,i)·N^i = term · (i!)^{-1} · N^i  (mod N^{s+1})
		tmp.Mul(term, pk.invFactorial(i))
		tmp.Mod(tmp, mod)
		tmp.Mul(tmp, pk.NS(i))
		tmp.Mod(tmp, mod)
		res.Add(res, tmp)
	}
	res.Mod(res, mod)
	return res
}

// randomUnit draws r uniformly from Z*_N.
func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	gcd := new(big.Int)
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if gcd.GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Options tunes performance/assumption trade-offs of a public key.
// The zero value is the paper-faithful configuration.
type Options struct {
	// ShortRandBits, when > 0, switches encryption randomness from a
	// full-width unit r ∈ Z*_N to r = h^x for a per-key fixed base h
	// and a uniform short exponent x of this many bits, in the style of
	// Damgård–Jurik–Nielsen: h = −u² mod N for a random unit u, and the
	// ciphertext randomness factor (h^{N^s})^x is computed from a
	// precomputed fixed-base table instead of a full-width
	// exponentiation. Decryption is unchanged and yields the identical
	// plaintext; what changes is the *assumption* — semantic security
	// now additionally rests on the indistinguishability of h^x with
	// short x from a uniform 2N-th residue (a short-exponent
	// discrete-log assumption). That is why it ships default-off; see
	// SECURITY.md. Use at least twice the target security level
	// (≥ 224 bits) in deployment.
	ShortRandBits int
	// Rand is the entropy source for deriving the fixed base h
	// (nil = crypto/rand.Reader). Only used when ShortRandBits > 0.
	Rand io.Reader
}

// shortRandState is the realized ShortRandBits configuration: the fixed
// base h and lazily built per-degree fixed-base tables for h^{N^s}.
type shortRandState struct {
	bits  int
	bound *big.Int // 2^bits, the exclusive upper bound for x
	h     *big.Int // −u² mod N

	mu  sync.Mutex
	fbs [MaxS + 1]atomic.Pointer[modmath.FixedBase]
}

// SetOptions applies o to the key. ShortRandBits > 0 enables the
// short-exponent randomness mode for every later encryption under this
// key; 0 restores the default full-width randomness. Do not call
// concurrently with encryptions whose randomness mode must match a
// replay — the switch is atomic but un-ordered relative to in-flight
// operations.
func (pk *PublicKey) SetOptions(o Options) error {
	if o.ShortRandBits == 0 {
		pk.shortRand.Store(nil)
		return nil
	}
	if o.ShortRandBits < 16 {
		return fmt.Errorf("paillier: ShortRandBits=%d too small (minimum 16; ≥224 recommended)", o.ShortRandBits)
	}
	if o.ShortRandBits >= pk.N.BitLen() {
		return fmt.Errorf("paillier: ShortRandBits=%d is not short for a %d-bit modulus", o.ShortRandBits, pk.N.BitLen())
	}
	u, err := pk.randomUnit(o.Rand)
	if err != nil {
		return fmt.Errorf("paillier: deriving short-rand base: %w", err)
	}
	h := new(big.Int).Mul(u, u)
	h.Mod(h, pk.N)
	h.Sub(pk.N, h) // −u² mod N
	sr := &shortRandState{
		bits:  o.ShortRandBits,
		bound: new(big.Int).Lsh(one, uint(o.ShortRandBits)),
		h:     h,
	}
	pk.shortRand.Store(sr)
	return nil
}

// ShortRandBits reports the active short-exponent width (0 = full-width
// randomness).
func (pk *PublicKey) ShortRandBits() int {
	if sr := pk.shortRand.Load(); sr != nil {
		return sr.bits
	}
	return 0
}

// table returns the fixed-base table for h^{N^s} mod N^{s+1}, built on
// first use per degree (a kernel table-build in the obs metrics) and
// lock-free afterwards.
func (sr *shortRandState) table(pk *PublicKey, s int) *modmath.FixedBase {
	if f := sr.fbs[s].Load(); f != nil {
		return f
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if f := sr.fbs[s].Load(); f != nil {
		return f
	}
	ctx := pk.Ctx(s + 1)
	g := ctx.Exp(sr.h, pk.NS(s))
	f, err := ctx.NewFixedBase(g, sr.bits)
	if err != nil {
		// Unreachable for a well-formed state: bits ≥ 16, g ∈ [0, N^{s+1}).
		panic(fmt.Sprintf("paillier: building short-rand table: %v", err))
	}
	sr.fbs[s].Store(f)
	return f
}

// drawEncRand draws one encryption-randomness value for the mode sr
// (nil = full-width): a unit r ∈ Z*_N, or a short exponent x < 2^bits.
// Batch paths draw serially in index order with the mode loaded once,
// so seeded readers are consumed exactly like the serial loop.
func (pk *PublicKey) drawEncRand(random io.Reader, sr *shortRandState) (*big.Int, error) {
	if sr == nil {
		return pk.randomUnit(random)
	}
	if random == nil {
		random = rand.Reader
	}
	return rand.Int(random, sr.bound)
}

// encFactor turns a drawn randomness value into the ciphertext factor:
// r^{N^s} mod N^{s+1} full-width, or the table-backed (h^{N^s})^x in
// short-rand mode. The key holder computes the full-width factor through
// the factorization; it is the same integer. Safe for concurrent use
// once warmEnc has built the needed tables.
func (pk *PublicKey) encFactor(rv *big.Int, sr *shortRandState, s int) *big.Int {
	if sr == nil {
		if pk.owner != nil {
			return pk.owner.encFactorCRT(rv, s)
		}
		return pk.Ctx(s+1).Exp(rv, pk.NS(s))
	}
	f, err := sr.table(pk, s).Exp(rv)
	if err != nil {
		// Unreachable: drawEncRand only returns values in [0, 2^bits).
		panic(fmt.Sprintf("paillier: short-rand factor: %v", err))
	}
	return f
}

// Encrypt encrypts m under ε_s. m must lie in [0, N^s). random defaults to
// crypto/rand.Reader when nil.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int, s int) (*Ciphertext, error) {
	if s < 1 || s > MaxS {
		return nil, fmt.Errorf("paillier: degree s=%d out of range [1,%d]", s, MaxS)
	}
	if m.Sign() < 0 || m.Cmp(pk.NS(s)) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of range [0, N^%d)", s)
	}
	sr := pk.shortRand.Load()
	rv, err := pk.drawEncRand(random, sr)
	if err != nil {
		return nil, fmt.Errorf("paillier: drawing randomness: %w", err)
	}
	return pk.encryptWith(m, rv, sr, s), nil
}

// encryptWith assembles (1+N)^m · factor(rv) mod N^{s+1} with the
// randomness already drawn.
func (pk *PublicKey) encryptWith(m, rv *big.Int, sr *shortRandState, s int) *Ciphertext {
	mod := pk.NS(s + 1)
	c := pk.onePlusNExp(m, s)
	c.Mul(c, pk.encFactor(rv, sr, s))
	c.Mod(c, mod)
	countEnc(s)
	return &Ciphertext{C: c, S: s}
}

// EncryptInt64 is a convenience wrapper around Encrypt for small plaintexts.
func (pk *PublicKey) EncryptInt64(random io.Reader, m int64, s int) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(m), s)
}

// Rerandomize multiplies c by a fresh encryption of zero, producing a
// ciphertext of the same plaintext that is unlinkable to c.
func (pk *PublicKey) Rerandomize(random io.Reader, c *Ciphertext) (*Ciphertext, error) {
	zero, err := pk.Encrypt(random, new(big.Int), c.S)
	if err != nil {
		return nil, err
	}
	mRerandomize.Inc()
	return pk.Add(c, zero)
}

// Add implements ⊕: the returned ciphertext encrypts the sum of the two
// plaintexts (mod N^s). Both ciphertexts must have the same degree.
func (pk *PublicKey) Add(c1, c2 *Ciphertext) (*Ciphertext, error) {
	if c1.S != c2.S {
		return nil, fmt.Errorf("paillier: adding ciphertexts of degree %d and %d", c1.S, c2.S)
	}
	mod := pk.NS(c1.S + 1)
	c := new(big.Int).Mul(c1.C, c2.C)
	c.Mod(c, mod)
	mAdd.Inc()
	return &Ciphertext{C: c, S: c1.S}, nil
}

// MulPlain implements ⊗: the returned ciphertext encrypts x·m (mod N^s)
// where m is c's plaintext. Negative x is reduced mod N^s.
func (pk *PublicKey) MulPlain(x *big.Int, c *Ciphertext) *Ciphertext {
	e := x
	if x.Sign() < 0 {
		e = new(big.Int).Mod(x, pk.NS(c.S))
	}
	res := pk.Ctx(c.S+1).Exp(c.C, e)
	mMulPlain.Inc()
	return &Ciphertext{C: res, S: c.S}
}

// DotProduct implements ⊙: given plaintext coefficients xs and an encrypted
// vector cs of equal length, it returns Enc(Σ xs[i]·m_i). Zero coefficients
// are skipped, which matters for the sparse indicator vectors of PPGNN.
// The product Π cs[i]^{xs[i]} runs through the kernel's interleaved
// multi-exponentiation, sharing one squaring chain across all δ' terms;
// the result is byte-identical to the reference per-term loop.
func (pk *PublicKey) DotProduct(xs []*big.Int, cs []*Ciphertext) (*Ciphertext, error) {
	if len(xs) != len(cs) {
		return nil, fmt.Errorf("paillier: dot product length mismatch %d vs %d", len(xs), len(cs))
	}
	if len(cs) == 0 {
		return nil, errors.New("paillier: dot product of empty vectors")
	}
	s := cs[0].S
	ctx := pk.Ctx(s + 1)
	ns := pk.NS(s)
	bases := make([]*big.Int, 0, len(cs))
	exps := make([]*big.Int, 0, len(cs))
	for i, c := range cs {
		if c.S != s {
			return nil, fmt.Errorf("paillier: mixed ciphertext degrees in dot product")
		}
		if xs[i].Sign() == 0 {
			continue
		}
		e := xs[i]
		if e.Sign() < 0 {
			e = new(big.Int).Mod(e, ns)
		}
		bases = append(bases, c.C)
		exps = append(exps, e)
	}
	var (
		acc *big.Int
		err error
	)
	if kernelOn() {
		acc, err = ctx.MultiExp(bases, exps)
	} else {
		acc, err = ctx.MultiExpRef(bases, exps)
	}
	if err != nil {
		return nil, fmt.Errorf("paillier: dot product: %w", err)
	}
	mDot.Inc()
	return &Ciphertext{C: acc, S: s}, nil
}

// MatSelect implements the homomorphic matrix multiplication ⨂ of Theorem
// 3.1: A is an m×d plaintext matrix given row-major (A[i] is row i) and v an
// encrypted column vector of length d; the result is the encrypted m-vector
// A·v. When v is an indicator vector this privately selects a column of A.
func (pk *PublicKey) MatSelect(a [][]*big.Int, v []*Ciphertext) ([]*Ciphertext, error) {
	mMatSelect.Inc()
	out := make([]*Ciphertext, len(a))
	for i, row := range a {
		c, err := pk.DotProduct(row, v)
		if err != nil {
			return nil, fmt.Errorf("paillier: row %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// Decrypt recovers the plaintext of c. The Damgård–Jurik decryption first
// removes the randomness with the Carmichael exponent λ — c^λ =
// (1+N)^{λ·m} mod N^{s+1} — then extracts the discrete log of base 1+N and
// divides by λ mod N^s.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	if c.S < 1 || c.S > MaxS {
		return nil, fmt.Errorf("paillier: ciphertext degree %d out of range", c.S)
	}
	mod := sk.NS(c.S + 1)
	if c.C.Sign() <= 0 || c.C.Cmp(mod) >= 0 {
		return nil, errors.New("paillier: ciphertext out of range")
	}
	defer observeDecrypt(mDecryptCRT, time.Now())
	countDec(c.S)
	// c^λ via CRT over the factorization — the expensive step.
	u := sk.expLambdaCRT(c.C, c.S)
	x, err := sk.logOnePlusN(u, c.S)
	if err != nil {
		return nil, err
	}
	x.Mul(x, sk.invLambda(c.S))
	x.Mod(x, sk.NS(c.S))
	return x, nil
}

// DecryptLayered peels off `layers` nested encryptions: the innermost
// plaintext of Enc_s1(Enc_s2(...m)). PPGNN-OPT produces [[ [a] ]] — an ε_2
// encryption whose plaintext is an ε_1 ciphertext — which this unwraps with
// DecryptLayered(c, 2) using degrees (2, 1).
func (sk *PrivateKey) DecryptLayered(c *Ciphertext, layers int) (*big.Int, error) {
	if layers < 1 {
		return nil, errors.New("paillier: layers must be >= 1")
	}
	cur := c
	for l := 0; l < layers; l++ {
		m, err := sk.Decrypt(cur)
		if err != nil {
			return nil, fmt.Errorf("paillier: layer %d: %w", l, err)
		}
		if l == layers-1 {
			return m, nil
		}
		if cur.S < 2 {
			return nil, errors.New("paillier: inner layer has no room for a ciphertext")
		}
		cur = &Ciphertext{C: m, S: cur.S - 1}
	}
	panic("unreachable")
}

// invLambda returns λ^{-1} mod N^s, cached per degree.
func (sk *PrivateKey) invLambda(s int) *big.Int {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	for len(sk.invLam) <= s {
		sk.invLam = append(sk.invLam, nil)
	}
	if sk.invLam[s] == nil {
		inv := new(big.Int).ModInverse(sk.lambda, sk.NS(s))
		if inv == nil {
			panic("paillier: lambda not invertible mod N^s")
		}
		sk.invLam[s] = inv
	}
	return sk.invLam[s]
}

// logOnePlusN computes x such that u = (1+N)^x mod N^{s+1}, x in [0, N^s).
// This is the iterative algorithm from Damgård–Jurik (PKC 2001, Section
// 4.2). It needs only public information, which is what lets threshold
// share combination (threshold.go) run without the private key.
func (pk *PublicKey) logOnePlusN(u *big.Int, s int) (*big.Int, error) {
	n := pk.N
	x := new(big.Int)
	t1 := new(big.Int)
	t2 := new(big.Int)
	tmp := new(big.Int)
	for j := 1; j <= s; j++ {
		nj := pk.NS(j)
		// t1 = L(u mod N^{j+1}) where L(v) = (v-1)/N; exact by construction.
		t1.Mod(u, pk.NS(j+1))
		t1.Sub(t1, one)
		if new(big.Int).Mod(t1, n).Sign() != 0 {
			return nil, errors.New("paillier: decryption failed (invalid ciphertext)")
		}
		t1.Div(t1, n)
		t2.Set(x)
		xk := new(big.Int).Set(x) // running x - (k-1)
		for k := 2; k <= j; k++ {
			xk.Sub(xk, one)
			t2.Mul(t2, xk)
			t2.Mod(t2, nj)
			// t1 -= t2 * N^{k-1} / k!  (mod N^j)
			tmp.Mul(t2, pk.NS(k-1))
			tmp.Mod(tmp, nj)
			tmp.Mul(tmp, pk.invFactorial(k))
			tmp.Mod(tmp, nj)
			t1.Sub(t1, tmp)
			t1.Mod(t1, nj)
		}
		x.Set(t1)
	}
	return x, nil
}

// CiphertextByteLen returns the serialized size in bytes of a degree-s
// ciphertext under this key: an element of Z_{N^{s+1}} occupies (s+1)·|N|
// bytes. The paper's L_e is CiphertextByteLen(1).
func (pk *PublicKey) CiphertextByteLen(s int) int {
	return (s + 1) * ((pk.N.BitLen() + 7) / 8)
}

// Bytes serializes the ciphertext value zero-padded to the key's fixed
// length so that message sizes are deterministic.
func (c *Ciphertext) Bytes(pk *PublicKey) []byte {
	buf := make([]byte, pk.CiphertextByteLen(c.S))
	c.C.FillBytes(buf)
	return buf
}

// CiphertextFromBytes reverses Ciphertext.Bytes.
func CiphertextFromBytes(b []byte, s int) *Ciphertext {
	return &Ciphertext{C: new(big.Int).SetBytes(b), S: s}
}
