package filter_test

import (
	"strconv"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/model"
	"esthera/internal/model/arm"
	"esthera/internal/rng"
)

// Filter-layer microbenchmarks: one Step of each implementation at equal
// total particle counts on the arm model (9 state variables).

func benchFilter(b *testing.B, mk func(m model.Model) (filter.Filter, error)) {
	b.Helper()
	m, sc, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
	if err != nil {
		b.Fatal(err)
	}
	f, err := mk(m)
	if err != nil {
		b.Fatal(err)
	}
	measR := rng.New(rng.NewPhilox(7))
	truth := make([]float64, m.StateDim())
	z := make([]float64, m.MeasurementDim())
	u := make([]float64, m.ControlDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.TrueState(i+1, truth)
		sc.Control(i+1, u)
		m.Measure(z, truth, measR)
		f.Step(u, z)
	}
}

func BenchmarkCentralizedStep4096(b *testing.B) {
	benchFilter(b, func(m model.Model) (filter.Filter, error) {
		return filter.NewCentralized(m, 4096, 1, filter.CentralizedOptions{})
	})
}

func BenchmarkParallelStep4096(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		w := workers
		b.Run(itoa(w)+"workers", func(b *testing.B) {
			benchFilter(b, func(m model.Model) (filter.Filter, error) {
				dev := device.New(device.Config{Workers: w, LocalMemBytes: -1})
				return filter.NewParallel(dev, m, filter.ParallelConfig{
					SubFilters: 32, ParticlesPer: 128, Scheme: exchange.Ring, ExchangeCount: 1,
				}, 1)
			})
		})
	}
}

func BenchmarkGaussianStep4096(b *testing.B) {
	benchFilter(b, func(m model.Model) (filter.Filter, error) {
		return filter.NewGaussian(m, 4096, 1)
	})
}

func BenchmarkAPFStep4096(b *testing.B) {
	benchFilter(b, func(m model.Model) (filter.Filter, error) {
		return filter.NewAPF(m, 4096, 1, filter.MaxWeight)
	})
}

func BenchmarkEKFStep(b *testing.B) {
	benchFilter(b, func(m model.Model) (filter.Filter, error) {
		return filter.NewEKF(m.(model.Linearizable), 1), nil
	})
}

func BenchmarkUKFStep(b *testing.B) {
	benchFilter(b, func(m model.Model) (filter.Filter, error) {
		return filter.NewUKF(m.(model.Linearizable), 1), nil
	})
}

func itoa(n int) string { return strconv.Itoa(n) }
