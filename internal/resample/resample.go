// Package resample implements the resampling algorithms and policies of
// the toolkit.
//
// Resampling combats the degeneracy problem (§II-B1): it replaces the
// weighted particle set by an unweighted one drawn with replacement
// according to the weights. The paper implements and compares two
// algorithms (§IV, §VI-F, Fig. 5):
//
//   - Roulette Wheel Selection (RWS): Θ(n) initialization (a prefix sum
//     of the weights) and Θ(log n) per sample (binary search in the CDF).
//   - Vose's alias method: Θ(n) initialization and Θ(1) per sample, at
//     the cost of a table construction that parallelizes poorly at
//     sub-filter sizes.
//
// This package provides sequential implementations of both plus
// systematic resampling and the collective-free Metropolis resampler of
// Murray et al. (arXiv:1202.6163) as baselines and ablations, the
// effective-sample-size metric, and the
// "when to resample" policies discussed in §IV (always, ESS threshold,
// random frequency). The barrier-phased device versions live in
// internal/kernels.
package resample

import (
	"math"

	"esthera/internal/rng"
	"esthera/internal/scan"
)

// Resampler draws len(dst) particle indices (with replacement) according
// to weights, writing them into dst. Weights need not be normalized but
// must be non-negative with a positive sum.
type Resampler interface {
	Name() string
	Resample(dst []int, weights []float64, r *rng.Rand)
}

// ESS returns the effective sample size of a weight vector,
// (Σw)² / Σw². It equals len(w) for uniform weights and approaches 1 under
// total degeneracy. Weights need not be normalized.
//
// A non-finite result — any NaN weight poisons both sums, and an Inf
// weight overflows them — is clamped to 0, the fully-degenerate reading.
// The clamp is what keeps ESSThreshold.ShouldResample live on a poisoned
// filter: NaN < frac·n is false for every threshold, so without it a
// single NaN weight would silently disable resampling forever.
func ESS(weights []float64) float64 {
	var s, s2 float64
	for _, w := range weights {
		s += w
		s2 += w * w
	}
	if s2 == 0 {
		return 0
	}
	ess := s * s / s2
	if math.IsNaN(ess) || math.IsInf(ess, 0) {
		return 0
	}
	return ess
}

// Normalize scales weights in place to sum to 1 and returns the original
// sum. If the sum is zero or not finite, weights are reset to uniform and
// 0 is returned — the standard recovery when every particle's likelihood
// underflows.
func Normalize(weights []float64) float64 {
	s := scan.Sum(weights)
	if !(s > 0) || s != s {
		u := 1.0 / float64(len(weights))
		for i := range weights {
			weights[i] = u
		}
		return 0
	}
	inv := 1 / s
	for i := range weights {
		weights[i] *= inv
	}
	return s
}

// checkArgs validates a Resample call.
func checkArgs(dst []int, weights []float64) {
	if len(weights) == 0 {
		panic("resample: empty weight vector")
	}
	if len(dst) == 0 {
		panic("resample: empty destination")
	}
}

// RWS is Roulette Wheel Selection: inverse-CDF sampling with a binary
// search per draw, exactly the scheme of §VI-F.
type RWS struct{}

// Name implements Resampler.
func (RWS) Name() string { return "rws" }

// Resample implements Resampler.
func (RWS) Resample(dst []int, weights []float64, r *rng.Rand) {
	checkArgs(dst, weights)
	cdf := make([]float64, len(weights))
	scan.InclusiveSum(cdf, weights)
	total := cdf[len(cdf)-1]
	if !(total > 0) {
		uniformFill(dst, len(weights), r)
		return
	}
	for i := range dst {
		dst[i] = searchCDF(cdf, r.Float64()*total)
	}
}

// searchCDF returns the smallest index with cdf[idx] > u (binary search).
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Systematic is systematic (universal stratified) resampling: a single
// uniform offset and n equally spaced pointers swept over the CDF. O(n)
// total, minimal variance, the most common choice in modern practice;
// included as a baseline the paper's related work (Bolić et al.) builds on.
type Systematic struct{}

// Name implements Resampler.
func (Systematic) Name() string { return "systematic" }

// Resample implements Resampler.
func (Systematic) Resample(dst []int, weights []float64, r *rng.Rand) {
	checkArgs(dst, weights)
	total := scan.Sum(weights)
	if !(total > 0) {
		uniformFill(dst, len(weights), r)
		return
	}
	n := len(dst)
	step := total / float64(n)
	u := r.Float64() * step
	acc := weights[0]
	j := 0
	for i := 0; i < n; i++ {
		for acc <= u && j < len(weights)-1 {
			j++
			acc += weights[j]
		}
		dst[i] = j
		u += step
	}
}

// uniformFill fills dst with uniform draws over [0,n), the degenerate-
// weights fallback.
func uniformFill(dst []int, n int, r *rng.Rand) {
	for i := range dst {
		dst[i] = r.Intn(n)
	}
}
