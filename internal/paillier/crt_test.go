package paillier

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
)

// The CRT-accelerated c^λ must agree with the direct exponentiation for
// every degree.
func TestExpLambdaCRTMatchesDirect(t *testing.T) {
	k := key(t)
	for s := 1; s <= 3; s++ {
		mod := k.NS(s + 1)
		for i := 0; i < 10; i++ {
			c, err := rand.Int(rand.Reader, mod)
			if err != nil {
				t.Fatal(err)
			}
			if c.Sign() == 0 {
				continue
			}
			want := new(big.Int).Exp(c, k.lambda, mod)
			got := k.expLambdaCRT(c, s)
			if got.Cmp(want) != 0 {
				t.Fatalf("s=%d: CRT exponentiation mismatch", s)
			}
		}
	}
}

func TestCRTDecryptionFreshKey(t *testing.T) {
	// A fresh key (no warmed caches) must still decrypt correctly via CRT.
	k, err := GenerateKey(nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 2; s++ {
		m := big.NewInt(987654321)
		ct, err := k.Encrypt(nil, m, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("s=%d: decrypt = %v", s, got)
		}
	}
}

func benchKey(b *testing.B, bits int) *PrivateKey {
	b.Helper()
	k, err := GenerateKey(nil, bits)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func BenchmarkEncrypt1024(b *testing.B) {
	k := benchKey(b, 1024)
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Encrypt(nil, m, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt1024CRT(b *testing.B) {
	k := benchKey(b, 1024)
	ct, err := k.EncryptInt64(nil, 123456789, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt1024Direct(b *testing.B) {
	k := benchKey(b, 1024)
	ct, err := k.EncryptInt64(nil, 123456789, 1)
	if err != nil {
		b.Fatal(err)
	}
	mod := k.NS(ct.S + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := new(big.Int).Exp(ct.C, k.lambda, mod)
		x, err := k.logOnePlusN(u, ct.S)
		if err != nil {
			b.Fatal(err)
		}
		x.Mul(x, k.invLambda(ct.S))
		x.Mod(x, k.NS(ct.S))
	}
}

func BenchmarkHomomorphicDot1024(b *testing.B) {
	k := benchKey(b, 1024)
	const n = 100
	xs := make([]*big.Int, n)
	cs := make([]*Ciphertext, n)
	for i := range xs {
		xs[i] = big.NewInt(int64(i + 1))
		ct, err := k.EncryptInt64(nil, int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = ct
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.DotProduct(xs, cs); err != nil {
			b.Fatal(err)
		}
	}
}

// encryptAll runs every encryption path of pk with readers seeded from
// seed and returns the ciphertext values in a fixed order: Encrypt,
// EncryptBatch, a filled Precomputer's EncryptBatch (pooled then online
// factors), Rerandomize, RerandomizeBatch and the Precomputer's
// RerandomizeBatch.
func encryptAll(t *testing.T, pk *PublicKey, s int, seed int64) []*big.Int {
	t.Helper()
	r := func(i int64) io.Reader { return mrand.New(mrand.NewSource(seed + i)) }
	ms := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(987654321), new(big.Int).Sub(pk.NS(s), one)}
	var out []*big.Int
	add := func(cts ...*Ciphertext) {
		for _, c := range cts {
			out = append(out, c.C)
		}
	}
	ct, err := pk.Encrypt(r(0), ms[2], s)
	if err != nil {
		t.Fatal(err)
	}
	add(ct)
	cts, err := pk.EncryptBatch(context.Background(), batchPool(), r(1), ms, s)
	if err != nil {
		t.Fatal(err)
	}
	add(cts...)
	pre, err := pk.NewPrecomputer(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Fill(r(2), 3); err != nil {
		t.Fatal(err)
	}
	pooled, _, err := pre.EncryptBatch(context.Background(), batchPool(), r(3), ms)
	if err != nil {
		t.Fatal(err)
	}
	add(pooled...)
	rr, err := pk.Rerandomize(r(4), ct)
	if err != nil {
		t.Fatal(err)
	}
	add(rr)
	rrs, err := pk.RerandomizeBatch(context.Background(), batchPool(), r(5), cts)
	if err != nil {
		t.Fatal(err)
	}
	add(rrs...)
	if err := pre.Fill(r(6), 2); err != nil {
		t.Fatal(err)
	}
	prr, _, err := pre.RerandomizeBatch(context.Background(), batchPool(), r(7), cts)
	if err != nil {
		t.Fatal(err)
	}
	add(prr...)
	return out
}

// The key holder's CRT encryption factor is the same integer as the
// public r^{N^s}: every encryption path yields byte-identical
// ciphertexts under the owner key and under the same key rebuilt from N,
// for every degree the protocol and its extensions use.
func TestCRTEncryptionMatchesPublicPath(t *testing.T) {
	k := key(t)
	pub := NewPublicKey(k.N)
	for s := 1; s <= 3; s++ {
		got := encryptAll(t, &k.PublicKey, s, int64(100*s))
		want := encryptAll(t, pub, s, int64(100*s))
		if len(got) != len(want) {
			t.Fatalf("s=%d: %d vs %d ciphertexts", s, len(got), len(want))
		}
		for i := range got {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("s=%d: ciphertext %d differs between the CRT and public paths", s, i)
			}
		}
		// And the CRT factor decrypts: the owner recovers each plaintext.
		m, err := k.Decrypt(&Ciphertext{C: got[0], S: s})
		if err != nil || m.Cmp(big.NewInt(987654321)) != 0 {
			t.Fatalf("s=%d: CRT ciphertext decrypts to %v (%v)", s, m, err)
		}
	}
}

// Only the public half of a key generated in this process encrypts
// through the factorization: keys rebuilt from N and threshold keys take
// the public path.
func TestCRTEncryptionOnlyForKeyHolder(t *testing.T) {
	k := key(t)
	if k.PublicKey.owner != k {
		t.Fatal("generated key does not encrypt through its factorization")
	}
	if NewPublicKey(k.N).owner != nil {
		t.Fatal("key rebuilt from N holds a factorization")
	}
	if tk, _ := thresholdKey(t); tk.PublicKey.owner != nil {
		t.Fatal("threshold key holds a factorization")
	}
}

// No encoding of a public key carries the factorization, not even the
// public half of a private key.
func TestPublicKeyEncodingsCarryNoFactors(t *testing.T) {
	k := key(t)
	js, err := json.Marshal(&k.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	var gb bytes.Buffer
	if err := gob.NewEncoder(&gb).Encode(&k.PublicKey); err != nil {
		t.Fatal(err)
	}
	for name, enc := range map[string][]byte{"json": js, "gob": gb.Bytes()} {
		for _, f := range []*big.Int{k.P, k.Q} {
			if bytes.Contains(enc, f.Bytes()) || bytes.Contains(enc, []byte(f.String())) {
				t.Fatalf("%s encoding of a public key carries a prime factor", name)
			}
		}
	}
	var back PublicKey
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back.N.Cmp(k.N) != 0 || back.owner != nil {
		t.Fatal("JSON round trip changed N or restored a factorization")
	}
}

// BenchmarkEncryptFactor compares the encryption factor r^{N^s} on the
// public path and on the key holder's CRT path.
func BenchmarkEncryptFactor(b *testing.B) {
	k := key(b)
	pub := NewPublicKey(k.N)
	for s := 1; s <= 2; s++ {
		r, err := k.randomUnit(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("s=%d/public", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pub.encFactor(r, nil, s)
			}
		})
		b.Run(fmt.Sprintf("s=%d/crt", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.encFactor(r, nil, s)
			}
		})
	}
}
