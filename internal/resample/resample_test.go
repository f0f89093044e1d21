package resample

import (
	"math"
	"testing"
	"testing/quick"

	"esthera/internal/rng"
)

var allResamplers = []Resampler{RWS{}, Vose{}, Systematic{}}

// checkProportions verifies that resampling n draws from a fixed weight
// vector reproduces the weight proportions within sampling error.
func checkProportions(t *testing.T, rs Resampler, weights []float64, draws int) {
	t.Helper()
	r := rng.New(rng.NewPhilox(1234))
	counts := make([]int, len(weights))
	dst := make([]int, draws)
	rs.Resample(dst, weights, r)
	for _, idx := range dst {
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("%s: index %d out of range", rs.Name(), idx)
		}
		counts[idx]++
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		p := w / total
		got := float64(counts[i]) / float64(draws)
		// Binomial standard error plus a safety factor.
		se := math.Sqrt(p*(1-p)/float64(draws)) + 1e-9
		if math.Abs(got-p) > 8*se+0.002 {
			t.Errorf("%s: outcome %d frequency %0.4f, want %0.4f (se %0.4f)", rs.Name(), i, got, p, se)
		}
	}
}

func TestResamplersMatchProportions(t *testing.T) {
	weights := []float64{0.1, 0.4, 0.0, 0.25, 0.25}
	for _, rs := range allResamplers {
		checkProportions(t, rs, weights, 200000)
	}
}

func TestResamplersUnnormalizedWeights(t *testing.T) {
	weights := []float64{10, 40, 0, 25, 25}
	for _, rs := range allResamplers {
		checkProportions(t, rs, weights, 100000)
	}
}

func TestResamplersSingleHeavyWeight(t *testing.T) {
	// Total degeneracy: everything must map to index 2.
	weights := []float64{0, 0, 1, 0}
	for _, rs := range allResamplers {
		r := rng.New(rng.NewPhilox(7))
		dst := make([]int, 1000)
		rs.Resample(dst, weights, r)
		for _, idx := range dst {
			if idx != 2 {
				t.Errorf("%s: drew index %d from a point mass at 2", rs.Name(), idx)
			}
		}
	}
}

func TestResamplersZeroWeightsFallback(t *testing.T) {
	weights := []float64{0, 0, 0}
	for _, rs := range allResamplers {
		r := rng.New(rng.NewPhilox(3))
		dst := make([]int, 3000)
		rs.Resample(dst, weights, r)
		counts := make([]int, 3)
		for _, idx := range dst {
			if idx < 0 || idx >= 3 {
				t.Fatalf("%s: index out of range under zero weights", rs.Name())
			}
			counts[idx]++
		}
		for i, c := range counts {
			if c < 700 || c > 1300 {
				t.Errorf("%s: zero-weight fallback not uniform: counts[%d]=%d", rs.Name(), i, c)
			}
		}
	}
}

func TestResampleFewerDrawsThanWeights(t *testing.T) {
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = 1
	}
	for _, rs := range allResamplers {
		r := rng.New(rng.NewPhilox(5))
		dst := make([]int, 10)
		rs.Resample(dst, weights, r)
		for _, idx := range dst {
			if idx < 0 || idx >= 100 {
				t.Fatalf("%s: index out of range", rs.Name())
			}
		}
	}
}

func TestSystematicLowVariance(t *testing.T) {
	// With uniform weights, systematic resampling must return (almost)
	// exactly one copy of each particle.
	n := 64
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	r := rng.New(rng.NewPhilox(11))
	dst := make([]int, n)
	Systematic{}.Resample(dst, weights, r)
	counts := make([]int, n)
	for _, idx := range dst {
		counts[idx]++
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("systematic with uniform weights: counts[%d] = %d, want 1", i, c)
		}
	}
}

func TestSearchCDF(t *testing.T) {
	cdf := []float64{0.1, 0.3, 0.6, 1.0}
	cases := []struct {
		u    float64
		want int
	}{
		{0.0, 0}, {0.05, 0}, {0.1, 1}, {0.2, 1}, {0.3, 2}, {0.59, 2}, {0.6, 3}, {0.99, 3},
	}
	for _, c := range cases {
		if got := searchCDF(cdf, c.u); got != c.want {
			t.Errorf("searchCDF(%v) = %d, want %d", c.u, got, c.want)
		}
	}
}

func TestESS(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if got := ESS(uniform); math.Abs(got-4) > 1e-12 {
		t.Fatalf("ESS(uniform) = %v, want 4", got)
	}
	point := []float64{0, 1, 0}
	if got := ESS(point); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ESS(point mass) = %v, want 1", got)
	}
	if got := ESS([]float64{0, 0}); got != 0 {
		t.Fatalf("ESS(zero) = %v, want 0", got)
	}
	// Scale invariance.
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	if math.Abs(ESS(a)-ESS(b)) > 1e-12 {
		t.Fatal("ESS not scale invariant")
	}
}

func TestNormalize(t *testing.T) {
	w := []float64{2, 6}
	sum := Normalize(w)
	if sum != 8 || w[0] != 0.25 || w[1] != 0.75 {
		t.Fatalf("Normalize wrong: sum=%v w=%v", sum, w)
	}
	z := []float64{0, 0}
	if s := Normalize(z); s != 0 || z[0] != 0.5 || z[1] != 0.5 {
		t.Fatalf("Normalize zero fallback wrong: s=%v z=%v", s, z)
	}
	nan := []float64{math.NaN(), 1}
	if s := Normalize(nan); s != 0 || nan[0] != 0.5 {
		t.Fatalf("Normalize NaN fallback wrong: s=%v w=%v", s, nan)
	}
}

func TestAliasTableInvariants(t *testing.T) {
	r := rng.New(rng.NewPhilox(21))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = r.Float64()
		}
		tab := NewAliasTable(weights)
		if tab.Len() != n {
			t.Fatalf("table length %d, want %d", tab.Len(), n)
		}
		// Reconstructed probabilities must match the normalized weights:
		// p(i) = (prob[i] + Σ_{j: alias[j]=i} (1-prob[j])) / n.
		rec := make([]float64, n)
		for i := 0; i < n; i++ {
			if tab.Prob(i) < 0 || tab.Prob(i) > 1+1e-12 {
				t.Fatalf("prob[%d] = %v out of [0,1]", i, tab.Prob(i))
			}
			rec[i] += tab.Prob(i) / float64(n)
			a := tab.Alias(i)
			if a < 0 || a >= n {
				t.Fatalf("alias[%d] = %d out of range", i, a)
			}
			rec[a] += (1 - tab.Prob(i)) / float64(n)
		}
		total := 0.0
		for _, w := range weights {
			total += w
		}
		for i, w := range weights {
			if math.Abs(rec[i]-w/total) > 1e-9 {
				t.Fatalf("trial %d: reconstructed p[%d] = %v, want %v", trial, i, rec[i], w/total)
			}
		}
	}
}

func TestAliasTableZeroWeights(t *testing.T) {
	tab := NewAliasTable([]float64{0, 0, 0})
	r := rng.New(rng.NewPhilox(2))
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[tab.Sample(r)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform fallback skewed: counts[%d]=%d", i, c)
		}
	}
}

// Property: alias-table reconstruction matches normalized weights for
// arbitrary non-negative inputs.
func TestQuickAliasReconstruction(t *testing.T) {
	f := func(raw []float64) bool {
		ws := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				ws = append(ws, math.Abs(math.Mod(v, 1000)))
			}
		}
		if len(ws) == 0 {
			return true
		}
		total := 0.0
		for _, w := range ws {
			total += w
		}
		tab := NewAliasTable(ws)
		rec := make([]float64, len(ws))
		n := float64(len(ws))
		for i := range ws {
			rec[i] += tab.Prob(i) / n
			rec[tab.Alias(i)] += (1 - tab.Prob(i)) / n
		}
		if !(total > 0) {
			return true
		}
		for i, w := range ws {
			if math.Abs(rec[i]-w/total) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicies(t *testing.T) {
	r := rng.New(rng.NewPhilox(9))
	uniform := []float64{1, 1, 1, 1}
	degenerate := []float64{1, 0, 0, 0}

	if !(Always{}).ShouldResample(uniform, r) {
		t.Error("Always must resample")
	}
	if (Never{}).ShouldResample(degenerate, r) {
		t.Error("Never must not resample")
	}
	ess := ESSThreshold{Frac: 0.5}
	if ess.ShouldResample(uniform, r) {
		t.Error("ESS policy must not fire on uniform weights")
	}
	if !ess.ShouldResample(degenerate, r) {
		t.Error("ESS policy must fire on degenerate weights")
	}
	rf := RandomFrequency{P: 0.25}
	fires := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if rf.ShouldResample(uniform, r) {
			fires++
		}
	}
	frac := float64(fires) / trials
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("RandomFrequency fired %0.3f of rounds, want ≈ 0.25", frac)
	}
	for _, p := range []Policy{Always{}, Never{}, ESSThreshold{}, RandomFrequency{}} {
		if p.Name() == "" {
			t.Error("policy with empty name")
		}
	}
}

func TestResamplePanicsOnEmpty(t *testing.T) {
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	r := rng.New(rng.NewPhilox(1))
	mustPanic(func() { RWS{}.Resample(nil, []float64{1}, r) })
	mustPanic(func() { RWS{}.Resample(make([]int, 1), nil, r) })
}

func BenchmarkRWSCentralized1M(b *testing.B) {
	benchResampler(b, RWS{}, 1<<20)
}

func BenchmarkVoseCentralized1M(b *testing.B) {
	benchResampler(b, Vose{}, 1<<20)
}

func BenchmarkSystematicCentralized1M(b *testing.B) {
	benchResampler(b, Systematic{}, 1<<20)
}

func benchResampler(b *testing.B, rs Resampler, n int) {
	r := rng.New(rng.NewPhilox(1))
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = r.Float64()
	}
	dst := make([]int, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Resample(dst, weights, r)
	}
}
