package esthera_test

import (
	"math"
	"testing"

	"esthera"
)

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := esthera.DefaultConfig()
	if cfg.ParticlesPerSubFilter != 128 {
		t.Fatalf("particles per sub-filter %d, want 128 (Table II GPU default)", cfg.ParticlesPerSubFilter)
	}
	if cfg.SubFilters != 120 {
		t.Fatalf("sub-filters %d, want 120 (Table II)", cfg.SubFilters)
	}
	if cfg.ExchangeScheme != "ring" || cfg.ExchangeCount != 1 {
		t.Fatalf("exchange %s/%d, want ring/1 (Table II)", cfg.ExchangeScheme, cfg.ExchangeCount)
	}
}

func TestQuickstartFlow(t *testing.T) {
	m, sc, err := esthera.NewArmScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	if m.StateDim() != 9 {
		t.Fatalf("arm state dim %d, want 9", m.StateDim())
	}
	cfg := esthera.DefaultConfig()
	cfg.SubFilters, cfg.ParticlesPerSubFilter = 32, 32 // keep the test quick
	f, err := esthera.NewFilter(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := esthera.Track(f, sc, 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 60 {
		t.Fatalf("%d error samples", len(errs))
	}
	tail := 0.0
	for _, e := range errs[40:] {
		tail += e
	}
	if tail/20 > 0.3 {
		t.Fatalf("quickstart filter trailing error %v m, want < 0.3", tail/20)
	}
}

func TestFilterAndCentralizedConstructors(t *testing.T) {
	m, sc, err := esthera.NewArmScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := esthera.DefaultConfig()
	cfg.SubFilters, cfg.ParticlesPerSubFilter = 8, 16
	dist, err := esthera.NewFilter(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cent, err := esthera.NewCentralizedFilter(m, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []esthera.Filter{dist, cent} {
		errs, err := esthera.Track(f, sc, 20, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range errs {
			if math.IsNaN(e) {
				t.Fatalf("%s produced NaN error", f.Name())
			}
		}
	}
}

func TestOtherScenarios(t *testing.T) {
	for name, mk := range map[string]func() (esthera.Model, esthera.Scenario){
		"ungm":       func() (esthera.Model, esthera.Scenario) { return esthera.NewUNGMScenario(1) },
		"bearings":   func() (esthera.Model, esthera.Scenario) { return esthera.NewBearingsScenario(1) },
		"volatility": func() (esthera.Model, esthera.Scenario) { return esthera.NewVolatilityScenario(1) },
	} {
		m, sc := mk()
		f, err := esthera.NewCentralizedFilter(m, 256, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		errs, err := esthera.Track(f, sc, 20, 9)
		if err != nil || len(errs) != 20 {
			t.Fatalf("%s: %v / %d samples", name, err, len(errs))
		}
	}
}

func TestKalmanConstructors(t *testing.T) {
	m, sc := esthera.NewBearingsScenario(2)
	lin, ok := m.(esthera.Linearizable)
	if !ok {
		t.Fatal("bearings model must be Linearizable")
	}
	for _, f := range []esthera.Filter{esthera.NewEKF(lin, 1), esthera.NewUKF(lin, 1)} {
		errs, err := esthera.Track(f, sc, 30, 5)
		if err != nil {
			t.Fatal(err)
		}
		if errs[len(errs)-1] > 5 {
			t.Fatalf("%s final error %v", f.Name(), errs[len(errs)-1])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m, _, _ := esthera.NewArmScenario(2)
	bad := []esthera.Config{
		{SubFilters: 8, ParticlesPerSubFilter: 16, ExchangeScheme: "bogus", ExchangeCount: 1},
		{SubFilters: 8, ParticlesPerSubFilter: 16, Resampler: "bogus"},
		{SubFilters: 8, ParticlesPerSubFilter: 16, Policy: "bogus"},
		{SubFilters: 0, ParticlesPerSubFilter: 16},
		{SubFilters: 4, ParticlesPerSubFilter: 16, ExchangeCount: -1},
	}
	for i, cfg := range bad {
		if _, err := esthera.NewFilter(m, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := esthera.Track(nil, nil, 0, 0); err == nil {
		t.Error("Track with 0 steps must error")
	}
	cfg := esthera.Config{SubFilters: 4, ParticlesPerSubFilter: 16, Resampler: "systematic", ExchangeScheme: "none"}
	if _, err := esthera.NewFilter(m, cfg); err != nil {
		t.Errorf("parallel systematic: %v", err)
	}
	cfg.AdaptEvery = 4
	if _, err := esthera.NewFilter(m, cfg); err != nil {
		t.Errorf("parallel adaptive: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (esthera.Config{}).Validate(); err != nil {
		t.Errorf("zero config must validate (all defaults): %v", err)
	}
	if err := esthera.DefaultConfig().Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	good := esthera.Config{
		ExchangeScheme: "hypercube", Resampler: "vose", Policy: "ess",
		Streams: "mtgp", Estimator: "weighted-mean",
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	good2 := esthera.Config{
		Resampler: "metropolis", Policy: "ess:0.3", AdaptEvery: 4,
	}
	if err := good2.Validate(); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	bad := []esthera.Config{
		{ExchangeScheme: "mesh"},
		{Resampler: "multinomial"},
		{Policy: "sometimes"},
		{Streams: "xorshift"},
		{Estimator: "median"},
		{AdaptEvery: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
}

func TestVehicleScenario(t *testing.T) {
	m, sc := esthera.NewVehicleScenario(true)
	if m.StateDim() != 4 || m.Name() != "vehicle-map" {
		t.Fatalf("vehicle model wrong: dim %d name %s", m.StateDim(), m.Name())
	}
	f, err := esthera.NewCentralizedFilter(m, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := esthera.Track(f, sc, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, e := range errs {
		mean += e
	}
	// GPS σ is 8 m; a working filter must do clearly better.
	if mean/60 > 8 {
		t.Fatalf("vehicle mean error %v m, want < 8", mean/60)
	}
	mPlain, _ := esthera.NewVehicleScenario(false)
	if mPlain.Name() != "vehicle" {
		t.Fatalf("plain vehicle name %s", mPlain.Name())
	}
}

func TestClusterFilterConstructor(t *testing.T) {
	m, sc, err := esthera.NewArmScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := esthera.NewClusterFilter(m, esthera.ClusterConfig{
		Nodes: 2, SubFiltersPerNode: 8, ParticlesPerSubFilter: 16,
		ExchangeCount: 1, Network: "ib", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs, err := esthera.Track(f, sc, 30, 3)
	if err != nil || len(errs) != 30 {
		t.Fatalf("cluster track: %v / %d", err, len(errs))
	}
	if _, err := esthera.NewClusterFilter(m, esthera.ClusterConfig{
		Nodes: 2, SubFiltersPerNode: 8, ParticlesPerSubFilter: 16, Network: "bogus",
	}); err == nil {
		t.Fatal("bogus network profile accepted")
	}
}

func TestEstimatorConstructor(t *testing.T) {
	m, _ := esthera.NewUNGMScenario(1)
	if _, err := esthera.NewCentralizedFilterWithEstimator(m, 64, 1, "weighted-mean"); err != nil {
		t.Fatal(err)
	}
	if _, err := esthera.NewCentralizedFilterWithEstimator(m, 64, 1, "bogus"); err == nil {
		t.Fatal("bogus estimator accepted")
	}
}

func TestAuxiliaryFilterConstructor(t *testing.T) {
	m, sc := esthera.NewUNGMScenario(3)
	f, err := esthera.NewAuxiliaryFilter(m, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := esthera.Track(f, sc, 25, 5)
	if err != nil || len(errs) != 25 {
		t.Fatalf("APF track: %v / %d", err, len(errs))
	}
	// Stochastic volatility lacks StepMean → refused.
	mv, _ := esthera.NewVolatilityScenario(1)
	if _, err := esthera.NewAuxiliaryFilter(mv, 64, 1); err == nil {
		t.Fatal("APF accepted a model without StepMean")
	}
}

func TestRunClosedLoop(t *testing.T) {
	cfg := esthera.DefaultConfig()
	cfg.SubFilters, cfg.ParticlesPerSubFilter = 16, 16
	res, err := esthera.RunClosedLoop(5, 60, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PointingErr) != 60 || len(res.EstErr) != 60 {
		t.Fatalf("result lengths %d/%d", len(res.PointingErr), len(res.EstErr))
	}
	tail := 0.0
	for _, e := range res.PointingErr[30:] {
		tail += e
	}
	if tail/30 > 1.0 {
		t.Fatalf("closed-loop pointing error %v rad, want < 1", tail/30)
	}
	// Invalid joint count propagates.
	if _, err := esthera.RunClosedLoop(-1, 10, cfg, 1); err == nil {
		t.Fatal("negative joints accepted")
	}
}

func TestGaussianFilterConstructor(t *testing.T) {
	m, sc := esthera.NewBearingsScenario(4)
	f, err := esthera.NewGaussianFilter(m, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := esthera.Track(f, sc, 20, 2)
	if err != nil || len(errs) != 20 {
		t.Fatalf("gaussian track: %v / %d", err, len(errs))
	}
	if _, err := esthera.NewGaussianFilter(m, 1, 1); err == nil {
		t.Fatal("n=1 gaussian accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	m, _, _ := esthera.NewArmScenario(3)
	for _, policy := range []string{"always", "never", "ess", "random"} {
		cfg := esthera.Config{SubFilters: 4, ParticlesPerSubFilter: 8, Policy: policy, ExchangeScheme: "none"}
		if _, err := esthera.NewFilter(m, cfg); err != nil {
			t.Errorf("policy %q rejected: %v", policy, err)
		}
	}
	if _, err := esthera.NewFilter(m, esthera.Config{
		SubFilters: 4, ParticlesPerSubFilter: 8, ExchangeScheme: "none", Estimator: "bogus",
	}); err == nil {
		t.Error("bogus estimator accepted")
	}
}
