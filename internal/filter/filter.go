// Package filter implements the estimation algorithms of the toolkit:
//
//   - Centralized: the sequential reference particle filter (Algorithm 1;
//     the paper's centralized C implementation, §VI).
//   - Parallel: the paper's contribution — a network of small sub-filters
//     with local resampling and neighbor particle exchange (Algorithm 2,
//     §IV) — on the device substrate, one work-group per sub-filter, with
//     the six kernels of §VI (see internal/kernels).
//   - Gaussian: the Gaussian particle filter of the related-work
//     comparisons (§III-B), which needs no resampling.
//   - GDPF / CDPF / RPA: the alternative distributed designs the paper
//     positions itself against (Bashi et al., Bolić et al.).
//   - EKF / UKF: the parametric baselines the introduction contrasts
//     particle filters with.
//
// All filters implement Filter and are driven identically by the
// experiment harness.
package filter

import (
	"fmt"
	"math"

	"esthera/internal/model"
	"esthera/internal/rng"
)

// Estimate is one filtering step's output.
type Estimate struct {
	// State is the estimated full state vector (owned by the caller after
	// return; filters must not reuse the backing array).
	State []float64
	// LogWeight is the unnormalized log-weight of the selected particle
	// for max-weight estimators; 0 for mean-type estimators.
	LogWeight float64
}

// Filter is a recursive state estimator. Step consumes the control u
// applied since the previous step and the measurement z taken at the new
// step, and returns the state estimate.
type Filter interface {
	Name() string
	Step(u, z []float64) Estimate
	// Reset reinitializes the filter from the model prior so one instance
	// can be reused across experiment runs. The seed re-derives all
	// random streams.
	Reset(seed uint64)
}

// Estimator selects how a particle set is condensed to a point estimate.
type Estimator int

// Estimator kinds.
const (
	// MaxWeight selects the particle with the highest weight — the
	// paper's global-estimate operator (§IV: "we select the particle with
	// the highest global weight").
	MaxWeight Estimator = iota
	// WeightedMean returns the weight-averaged state (the MMSE estimate).
	WeightedMean
)

// EstimatorByName maps a flag-friendly name ("max-weight" or "" for the
// paper's operator, "weighted-mean" for the MMSE estimate) to an
// Estimator.
func EstimatorByName(name string) (Estimator, error) {
	switch name {
	case "", "max-weight":
		return MaxWeight, nil
	case "weighted-mean":
		return WeightedMean, nil
	}
	return 0, fmt.Errorf("filter: unknown estimator %q", name)
}

// String returns the estimator name.
func (e Estimator) String() string {
	switch e {
	case MaxWeight:
		return "max-weight"
	case WeightedMean:
		return "weighted-mean"
	}
	return fmt.Sprintf("estimator(%d)", int(e))
}

// normalizeLogWeights converts log-weights to linear weights in place,
// stabilized by subtracting the maximum; returns the max log-weight.
func normalizeLogWeights(logw, w []float64) float64 {
	maxLW := math.Inf(-1)
	for _, lw := range logw {
		if lw > maxLW {
			maxLW = lw
		}
	}
	if math.IsInf(maxLW, -1) || math.IsNaN(maxLW) {
		for i := range w {
			w[i] = 1
		}
		return maxLW
	}
	for i, lw := range logw {
		w[i] = math.Exp(lw - maxLW)
	}
	return maxLW
}

// estimateFrom condenses a flat particle array (n particles × dim) with
// linear weights into an Estimate according to est.
func estimateFrom(est Estimator, particles []float64, w []float64, dim int, maxLogW float64) Estimate {
	n := len(w)
	out := make([]float64, dim)
	switch est {
	case WeightedMean:
		total := 0.0
		for i := 0; i < n; i++ {
			wi := w[i]
			total += wi
			p := particles[i*dim : (i+1)*dim]
			for d, v := range p {
				out[d] += wi * v
			}
		}
		if total > 0 {
			inv := 1 / total
			for d := range out {
				out[d] *= inv
			}
		}
		return Estimate{State: out}
	default: // MaxWeight
		best, bw := 0, math.Inf(-1)
		for i := 0; i < n; i++ {
			if w[i] > bw {
				best, bw = i, w[i]
			}
		}
		copy(out, particles[best*dim:(best+1)*dim])
		return Estimate{State: out, LogWeight: maxLogW + math.Log(bw)}
	}
}

// initParticles fills a flat particle array from the model prior.
func initParticles(m model.Model, particles []float64, r *rng.Rand) {
	dim := m.StateDim()
	n := len(particles) / dim
	for i := 0; i < n; i++ {
		m.InitParticle(particles[i*dim:(i+1)*dim], r)
	}
}
