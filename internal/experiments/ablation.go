package experiments

import (
	"fmt"
	"math"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/kernels"
	"esthera/internal/metrics"
	"esthera/internal/model"
	"esthera/internal/resample"
)

// PolicyAblation quantifies the §IV resampling-frequency discussion:
// always resampling vs the ESS-threshold criterion vs random-frequency
// resampling vs never, on the arm benchmark.
func PolicyAblation(o AccuracyOptions) (*Table, error) {
	o = o.withDefaults()
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	policies := []resample.Policy{
		resample.Always{},
		resample.ESSThreshold{Frac: 0.5},
		resample.RandomFrequency{P: 0.5},
		resample.Never{},
	}
	t := &Table{
		Title:  "§IV ablation — resampling policy (distributed 64×32, no exchange)",
		Header: []string{"policy", "mean error [m]"},
		Notes: []string{
			fmt.Sprintf("%d runs × %d steps", o.Runs, o.Steps),
			"exchange disabled (t=0) to isolate the resampling-frequency effect: with exchanges enabled, neighbor replacement itself applies selection pressure and masks the policy",
		},
	}
	for _, pol := range policies {
		p := pol
		e, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
			dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
			return filter.NewParallel(dev, m, filter.ParallelConfig{
				SubFilters: 64, ParticlesPer: 32,
				Scheme: exchange.None, ExchangeCount: 0,
				Policy: p,
			}, seed)
		})
		if err != nil {
			return nil, err
		}
		t.Append(p.Name(), e)
	}
	return t, nil
}

// VariantsAblation compares the related-work filter designs (§III-B) on
// the arm benchmark and on the multimodal UNGM: centralized, the paper's
// distributed design, LDPF, GDPF, CDPF, RPA, the Gaussian PF, and the
// Kalman baselines.
func VariantsAblation(o AccuracyOptions) (*Table, error) {
	o = o.withDefaults()
	armM, armSc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	ungmM := model.NewUNGM()
	ungmSc := model.NewSimulated(ungmM, o.Seed+9)

	const total = 1024
	const n, mp = 32, 32
	type mk func(m model.Model, seed uint64) (filter.Filter, error)
	variants := []struct {
		name string
		mk   mk
	}{
		{"centralized", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewCentralized(m, total, seed, filter.CentralizedOptions{})
		}},
		{"distributed (ring t=1)", func(m model.Model, seed uint64) (filter.Filter, error) {
			dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
			return filter.NewParallel(dev, m, filter.ParallelConfig{
				SubFilters: n, ParticlesPer: mp, Scheme: exchange.Ring, ExchangeCount: 1,
			}, seed)
		}},
		{"ldpf (t=0)", func(m model.Model, seed uint64) (filter.Filter, error) {
			dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
			return filter.NewParallel(dev, m, filter.ParallelConfig{
				SubFilters: n, ParticlesPer: mp, ExchangeCount: 0,
			}, seed)
		}},
		{"gdpf (global resample)", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewGDPF(m, n, mp, seed)
		}},
		{"cdpf (c=8)", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewCDPF(m, n, mp, 8, seed)
		}},
		{"rpa", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewRPA(m, n, mp, seed)
		}},
		{"gaussian pf", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewGaussian(m, total, seed)
		}},
		{"auxiliary pf", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewAPF(m, total, seed, filter.MaxWeight)
		}},
		{"ekf", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewEKF(m.(model.Linearizable), seed), nil
		}},
		{"ukf", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewUKF(m.(model.Linearizable), seed), nil
		}},
	}

	t := &Table{
		Title:  "§III-B ablation — filter designs on the arm and on UNGM",
		Header: []string{"filter", "arm error [m]", "ungm error"},
		Notes: []string{
			fmt.Sprintf("%d runs × %d steps; 1024 particles total (32 sub-filters × 32)", o.Runs, o.Steps),
		},
	}
	for _, v := range variants {
		mkArm := v.mk
		armErr, err := meanError(o, armSc, func(seed uint64) (filter.Filter, error) { return mkArm(armM, seed) })
		if err != nil {
			return nil, err
		}
		ungmErr, err := metrics.Average(
			func(seed uint64) (filter.Filter, error) { return mkArm(ungmM, seed) },
			func(int) model.Scenario { return ungmSc },
			o.Steps, o.Runs, o.Seed+1)
		if err != nil {
			return nil, err
		}
		t.Append(v.name, armErr, ungmErr.MeanError)
	}
	return t, nil
}

// AdaptiveResult carries the adaptive-resampling ablation's numbers for
// CI gating alongside the printable table.
type AdaptiveResult struct {
	Table *Table
	// Baseline is the best fixed-allocation RWS/Vose mean error; Worst
	// the worst error among the candidate configurations (Metropolis
	// resampling and/or ESS-driven adaptive allocation).
	Baseline, Worst float64
}

// Gate returns an error when any candidate configuration's error exceeds
// ratio × the fixed-allocation baseline — the acceptance criterion that
// removing the sort barrier (Metropolis) and re-dividing the particle
// budget by degeneracy (adaptive allocation) costs no accuracy.
func (r *AdaptiveResult) Gate(ratio float64) error {
	if r.Worst > ratio*r.Baseline {
		return fmt.Errorf("adaptive gate: worst candidate error %.4g exceeds %.2f × baseline %.4g",
			r.Worst, ratio, r.Baseline)
	}
	return nil
}

// AdaptiveAblation gates the adaptive-resampling subsystem: Metropolis
// resampling (sort barrier removed) and ESS-driven adaptive allocation
// (windows re-divided by degeneracy every 4 rounds), alone and combined,
// against the fixed-allocation RWS/Vose baseline on the arm benchmark.
func AdaptiveAblation(o AccuracyOptions) (*AdaptiveResult, error) {
	o = o.withDefaults()
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	adapt := filter.AdaptConfig{Every: 4}
	configs := []struct {
		name     string
		algo     kernels.Algo
		adapt    filter.AdaptConfig
		baseline bool
	}{
		{"rws, fixed", kernels.AlgoRWS, filter.AdaptConfig{}, true},
		{"vose, fixed", kernels.AlgoVose, filter.AdaptConfig{}, true},
		{"metropolis, fixed", kernels.AlgoMetropolis, filter.AdaptConfig{}, false},
		{"rws, adaptive", kernels.AlgoRWS, adapt, false},
		{"metropolis, adaptive", kernels.AlgoMetropolis, adapt, false},
	}
	t := &Table{
		Title:  "§IV ablation — adaptive allocation + Metropolis resampling (ring 32×32, t=1)",
		Header: []string{"configuration", "mean error [m]"},
		Notes: []string{
			fmt.Sprintf("%d runs × %d steps; adaptive: ESS-driven window re-division every 4 rounds", o.Runs, o.Steps),
			"metropolis removes the bitonic sort barrier and prefix-sum scan from the fused round (top-t selection only)",
		},
	}
	r := &AdaptiveResult{Table: t, Baseline: math.Inf(1)}
	for _, c := range configs {
		c := c
		e, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
			dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
			return filter.NewParallel(dev, m, filter.ParallelConfig{
				SubFilters: 32, ParticlesPer: 32,
				Scheme: exchange.Ring, ExchangeCount: 1,
				Resampler: c.algo,
				Adapt:     c.adapt,
			}, seed)
		})
		if err != nil {
			return nil, err
		}
		t.Append(c.name, e)
		if c.baseline {
			if e < r.Baseline {
				r.Baseline = e
			}
		} else if e > r.Worst {
			r.Worst = e
		}
	}
	return r, nil
}

// EstimatorAblation compares the max-weight global estimate (the paper's
// operator) with the weighted mean on the arm benchmark (design decision
// 6 in DESIGN.md).
func EstimatorAblation(o AccuracyOptions) (*Table, error) {
	o = o.withDefaults()
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "§IV ablation — global estimate operator (distributed 32×32)",
		Header: []string{"estimator", "mean error [m]"},
		Notes:  []string{fmt.Sprintf("%d runs × %d steps", o.Runs, o.Steps)},
	}
	for _, est := range []filter.Estimator{filter.MaxWeight, filter.WeightedMean} {
		e := est
		v, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
			dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
			return filter.NewParallel(dev, m, filter.ParallelConfig{
				SubFilters: 32, ParticlesPer: 32,
				Scheme: exchange.Ring, ExchangeCount: 1,
				Estimator: e,
			}, seed)
		})
		if err != nil {
			return nil, err
		}
		t.Append(e.String(), v)
	}
	return t, nil
}
