package scan

import (
	"math"
	"testing"
	"testing/quick"

	"esthera/internal/device"
	"esthera/internal/rng"
)

func TestExclusiveSumSequential(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	ExclusiveSum(dst, src)
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// Aliasing allowed.
	ExclusiveSum(src, src)
	for i := range want {
		if src[i] != want[i] {
			t.Fatalf("aliased dst[%d] = %v, want %v", i, src[i], want[i])
		}
	}
}

func TestInclusiveSumSequential(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	InclusiveSum(dst, src)
	want := []float64{1, 3, 6, 10}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestExclusiveMatchesSequential(t *testing.T) {
	r := rng.New(rng.NewPhilox(1))
	for _, n := range []int{1, 2, 3, 7, 8, 16, 100, 128, 1000} {
		src := make([]float64, n)
		for i := range src {
			src[i] = r.Float64()
		}
		want := make([]float64, n)
		ExclusiveSum(want, src)
		wantTotal := Sum(src)

		got := append([]float64(nil), src...)
		total := Exclusive(device.Serial{N: n}, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d: got[%d]=%v want %v", n, i, got[i], want[i])
			}
		}
		if math.Abs(total-wantTotal) > 1e-9 {
			t.Fatalf("n=%d: total %v want %v", n, total, wantTotal)
		}
	}
}

func TestExclusiveOnDeviceGroup(t *testing.T) {
	d := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	const n = 256
	r := rng.New(rng.NewPhilox(7))
	src := make([]float64, n)
	for i := range src {
		src[i] = r.Float64()
	}
	want := make([]float64, n)
	ExclusiveSum(want, src)
	got := append([]float64(nil), src...)
	d.Launch("scan", device.Grid{Groups: 1, GroupSize: n}, func(g *device.Group) {
		Exclusive(g, got)
	})
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("got[%d]=%v want %v", i, got[i], want[i])
		}
	}
}

func TestExclusiveEmpty(t *testing.T) {
	if total := Exclusive(device.Serial{N: 1}, nil); total != 0 {
		t.Fatalf("empty scan total = %v", total)
	}
}

func TestMaxIndex(t *testing.T) {
	cases := []struct {
		keys []float64
		want int
	}{
		{[]float64{1}, 0},
		{[]float64{1, 2}, 1},
		{[]float64{5, 2, 9, 1}, 2},
		{[]float64{5, 9, 9, 1}, 1}, // tie → lower index
		{[]float64{-3, -1, -2}, 1},
		{[]float64{0, 0, 0, 0, 0, 0, 7}, 6},
	}
	for _, c := range cases {
		if got := MaxIndex(device.Serial{N: len(c.keys)}, c.keys); got != c.want {
			t.Errorf("MaxIndex(%v) = %d, want %d", c.keys, got, c.want)
		}
	}
	if got := MaxIndex(device.Serial{N: 1}, nil); got != -1 {
		t.Errorf("MaxIndex(empty) = %d, want -1", got)
	}
}

func TestMaxIndexFewerLanesThanElements(t *testing.T) {
	// The reduction must be correct when the group is smaller than the
	// array (grid-stride loops).
	keys := make([]float64, 100)
	keys[63] = 42
	if got := MaxIndex(device.Serial{N: 8}, keys); got != 63 {
		t.Fatalf("MaxIndex with 8 lanes = %d, want 63", got)
	}
}

func TestSumTree(t *testing.T) {
	r := rng.New(rng.NewMT19937(3))
	for _, n := range []int{1, 2, 5, 64, 100} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		got := SumTree(device.Serial{N: 4}, xs)
		if math.Abs(got-Sum(xs)) > 1e-9 {
			t.Fatalf("SumTree n=%d: %v want %v", n, got, Sum(xs))
		}
	}
	if SumTree(device.Serial{N: 1}, nil) != 0 {
		t.Fatal("SumTree(empty) != 0")
	}
}

// Property: the parallel exclusive scan agrees with the sequential one on
// arbitrary inputs.
func TestQuickExclusiveEquivalence(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Clamp magnitudes so float error stays comparable.
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		want := make([]float64, len(xs))
		ExclusiveSum(want, xs)
		got := append([]float64(nil), xs...)
		Exclusive(device.Serial{N: len(xs) + 1}, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExclusiveSequential(b *testing.B) {
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = 1
	}
	dst := make([]float64, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExclusiveSum(dst, xs)
	}
}
