package paillier

import (
	"time"

	"ppgnn/internal/obs"
)

// Crypto telemetry (DESIGN.md §9). The paillier package reports to the
// process-global obs.Default registry: the crypto layer has no per-query
// object to hang a registry on, and its counters are the paper's own
// cost-model unit ("number of ε_s operations", Section 5) which only
// makes sense aggregated per process. Counters are pre-bound here so the
// hot paths pay one atomic add, not a registry lookup.
//
// Privacy: every metric below is an aggregate count or duration with
// labels drawn from the closed enums in obs/contract.go — op names,
// degree ∈ {1,2,other}, decrypt path ∈ {crt,threshold}, randomness
// source ∈ {pool,online}. No plaintext, ciphertext, or key material is
// ever observable here.
var (
	mEncDeg1      = opCounter("enc", "1")
	mEncDeg2      = opCounter("enc", "2")
	mEncDegOther  = opCounter("enc", obs.OtherValue)
	mDecDeg1      = opCounter("dec", "1")
	mDecDeg2      = opCounter("dec", "2")
	mDecDegOther  = opCounter("dec", obs.OtherValue)
	mAdd          = opCounter("add", "")
	mMulPlain     = opCounter("mul_plain", "")
	mDot          = opCounter("dot", "")
	mMatSelect    = opCounter("mat_select", "")
	mRerandomize  = opCounter("rerandomize", "")
	mPartialDec   = opCounter("partial_dec", "")
	mCombine      = opCounter("combine", "")
	mDecryptCRT   = obs.Default().Histogram("paillier_decrypt_seconds", obs.TimeBuckets, obs.L("path", "crt"))
	mDecryptThres = obs.Default().Histogram("paillier_decrypt_seconds", obs.TimeBuckets, obs.L("path", "threshold"))

	// Precomputer pool telemetry: the depth gauge is per-Precomputer —
	// labeled by degree and tenant slot via poolDepthGauge, so the
	// coordinator's s=1/s=2 pools and any per-tenant refilled pools stay
	// separately observable (one process aggregate is meaningless under
	// multi-pool traffic). The pool/online split is the hit/miss ratio —
	// the signal that sizes offline randomness generation.
	mPoolFilled = obs.Default().Counter("paillier_precompute_filled_total")
	mEncPooled  = obs.Default().Counter("paillier_precompute_encrypt_total", obs.L("source", "pool"))
	mEncOnline  = obs.Default().Counter("paillier_precompute_encrypt_total", obs.L("source", "online"))

	// Background refiller (DESIGN.md §15): fill rounds, factors produced,
	// and the summed self-sized target across live refillers.
	mRefillFills   = obs.Default().Counter("paillier_pool_refill_fills_total")
	mRefillFactors = obs.Default().Counter("paillier_pool_refill_factors_total")
	gRefillTarget  = obs.Default().Gauge("paillier_pool_refill_target")
)

// degreeLabel buckets an ε_s degree into the closed "degree" enum.
func degreeLabel(s int) string {
	switch s {
	case 1:
		return "1"
	case 2:
		return "2"
	default:
		return obs.OtherValue
	}
}

// poolDepthGauge binds the per-Precomputer depth gauge for a degree and
// tenant slot. Slots outside the closed tenant enum clamp to "other";
// tenant names never reach the label.
func poolDepthGauge(s int, tenant string) *obs.Gauge {
	return obs.Default().Gauge("paillier_precompute_pool_depth",
		obs.L("degree", degreeLabel(s)), obs.L("tenant", obs.ClampLabel("tenant", tenant)))
}

func opCounter(op, degree string) *obs.Counter {
	labels := []obs.Label{obs.L("op", op)}
	if degree != "" {
		labels = append(labels, obs.L("degree", degree))
	}
	return obs.Default().Counter("paillier_ops_total", labels...)
}

// countEnc/countDec bucket by the protocol-relevant degrees.
func countEnc(s int) {
	switch s {
	case 1:
		mEncDeg1.Inc()
	case 2:
		mEncDeg2.Inc()
	default:
		mEncDegOther.Inc()
	}
}

func countDec(s int) {
	switch s {
	case 1:
		mDecDeg1.Inc()
	case 2:
		mDecDeg2.Inc()
	default:
		mDecDegOther.Inc()
	}
}

// observeDecrypt records one decryption's wall time on the given path.
func observeDecrypt(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
