// Command esthera runs a particle filter against one of the bundled
// benchmark scenarios and reports per-step estimation error and the
// achieved update rate.
//
// Examples:
//
//	esthera -model arm -joints 5 -subfilters 120 -m 128 -steps 100
//	esthera -model ungm -filter centralized -particles 4096
//	esthera -model bearings -filter ekf
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"esthera"
)

func main() {
	var (
		modelName  = flag.String("model", "arm", "model: arm, ungm, bearings, volatility")
		joints     = flag.Int("joints", 5, "arm joints (state dim = joints + 4)")
		filterName = flag.String("filter", "parallel", "filter: parallel, centralized, gaussian, ekf, ukf")
		subFilters = flag.Int("subfilters", 120, "sub-filter count N")
		mPer       = flag.Int("m", 128, "particles per sub-filter")
		scheme     = flag.String("scheme", "ring", "exchange scheme: ring, torus, all-to-all, hypercube, none")
		tCount     = flag.Int("t", 1, "particles exchanged per neighbor")
		resampler  = flag.String("resampler", "rws", "resampler: rws, vose, systematic, metropolis")
		policy     = flag.String("policy", "always", "resampling policy: always, ess, random, never")
		estimator  = flag.String("estimator", "max-weight", "estimate operator: max-weight, weighted-mean")
		particles  = flag.Int("particles", 4096, "total particles (centralized/gaussian)")
		steps      = flag.Int("steps", 100, "filtering steps")
		seed       = flag.Uint64("seed", 1, "master seed")
		quiet      = flag.Bool("quiet", false, "suppress the per-step table")
	)
	flag.Parse()

	m, sc, err := makeScenario(*modelName, *joints, *seed)
	if err != nil {
		fatal(err)
	}
	cfg := esthera.Config{
		SubFilters:            *subFilters,
		ParticlesPerSubFilter: *mPer,
		ExchangeScheme:        *scheme,
		ExchangeCount:         *tCount,
		Resampler:             *resampler,
		Policy:                *policy,
		Estimator:             *estimator,
		Seed:                  *seed,
	}
	f, total, err := makeFilter(*filterName, m, cfg, *particles, *seed)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("model=%s state-dim=%d filter=%s particles=%d steps=%d seed=%d\n",
		m.Name(), m.StateDim(), f.Name(), total, *steps, *seed)
	start := time.Now()
	errs, err := esthera.Track(f, sc, *steps, *seed+1000)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if !*quiet {
		fmt.Println("step  error")
		for k, e := range errs {
			fmt.Printf("%4d  %.4f\n", k+1, e)
		}
	}
	mean, worst := 0.0, 0.0
	for _, e := range errs {
		mean += e
		if e > worst {
			worst = e
		}
	}
	mean /= float64(len(errs))
	fmt.Printf("mean error     %.4f\n", mean)
	fmt.Printf("worst error    %.4f\n", worst)
	fmt.Printf("update rate    %.1f Hz (%s per step on this host)\n",
		float64(*steps)/elapsed.Seconds(), elapsed/time.Duration(*steps))
}

func makeScenario(name string, joints int, seed uint64) (esthera.Model, esthera.Scenario, error) {
	switch name {
	case "arm":
		return esthera.NewArmScenario(joints)
	case "ungm":
		m, sc := esthera.NewUNGMScenario(seed)
		return m, sc, nil
	case "bearings":
		m, sc := esthera.NewBearingsScenario(seed)
		return m, sc, nil
	case "volatility":
		m, sc := esthera.NewVolatilityScenario(seed)
		return m, sc, nil
	}
	return nil, nil, fmt.Errorf("unknown model %q", name)
}

func makeFilter(name string, m esthera.Model, cfg esthera.Config, particles int, seed uint64) (esthera.Filter, int, error) {
	switch name {
	case "parallel":
		f, err := esthera.NewFilter(m, cfg)
		return f, cfg.SubFilters * cfg.ParticlesPerSubFilter, err
	case "centralized":
		f, err := esthera.NewCentralizedFilter(m, particles, seed)
		return f, particles, err
	case "gaussian":
		f, err := esthera.NewGaussianFilter(m, particles, seed)
		return f, particles, err
	case "ekf", "ukf":
		lin, ok := m.(esthera.Linearizable)
		if !ok {
			return nil, 0, fmt.Errorf("model %s does not support Kalman baselines", m.Name())
		}
		if name == "ekf" {
			return esthera.NewEKF(lin, seed), 0, nil
		}
		return esthera.NewUKF(lin, seed), 0, nil
	}
	return nil, 0, fmt.Errorf("unknown filter %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esthera:", err)
	os.Exit(1)
}
