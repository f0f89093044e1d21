package sortnet

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"esthera/internal/device"
	"esthera/internal/rng"
)

// stageLengths covers the in-register stages alone (4), padding around
// every power of two the kernels use, and lengths long enough for runs
// of many registers.
var stageLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 63, 64, 65, 100, 128, 256, 513}

// hardKeys draws n keys that exercise every corner of the key images:
// heavy ties, ±0, ±Inf and NaNs with assorted payloads and signs, mixed
// with ordinary values.
func hardKeys(n int, seed uint64) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
		math.Float64frombits(0xfff8000000001234), // negative quiet NaN
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff00000000beef0), // negative signalling NaN
		-1, 0.5, 2, math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	r := rng.New(rng.NewPhilox(seed))
	ks := make([]float64, n)
	for i := range ks {
		if r.Float64() < 0.5 {
			ks[i] = specials[int(r.Float64()*float64(len(specials)))]
		} else {
			ks[i] = r.Float64()*4 - 2
		}
	}
	return ks
}

// sortInLaunch sorts copies of keys and idx (nil stays nil) with nt
// inside a one-group device launch, as the kernels call it, and returns
// them with the launch's counters.
func sortInLaunch(d *device.Device, nt *Net, keys []float64, idx []int) ([]float64, []int, device.Counters) {
	ks := append([]float64(nil), keys...)
	var ix []int
	if idx != nil {
		ix = append([]int{}, idx...)
	}
	stats := d.Launch("sort", device.Grid{Groups: 1, GroupSize: 64}, func(g *device.Group) {
		nt.SortDescending(g, ks, ix)
	})
	return ks, ix, stats.Count
}

// requireSameSort fails unless the vector and scalar stages give the
// same key bits, index array and counters on keys/idx.
func requireSameSort(t testing.TB, d *device.Device, keys []float64, idx []int) {
	t.Helper()
	sk, si, sc := sortInLaunch(d, newNet(false), keys, idx)
	vk, vi, vc := sortInLaunch(d, newNet(true), keys, idx)
	for i := range sk {
		if math.Float64bits(sk[i]) != math.Float64bits(vk[i]) {
			t.Fatalf("n=%d idx=%v keys[%d]: scalar %x, avx2 %x (input %v)",
				len(keys), idx != nil, i, math.Float64bits(sk[i]), math.Float64bits(vk[i]), keys)
		}
	}
	for i := range si {
		if si[i] != vi[i] {
			t.Fatalf("n=%d idx[%d]: scalar %d, avx2 %d (input %v)", len(keys), i, si[i], vi[i], keys)
		}
	}
	if sc != vc {
		t.Fatalf("n=%d idx=%v counters: scalar %+v, avx2 %+v", len(keys), idx != nil, sc, vc)
	}
}

func identity(n int) []int {
	ix := make([]int, n)
	for i := range ix {
		ix[i] = i
	}
	return ix
}

// TestNetMatchesPackageSort requires the AVX2 stage to reproduce the
// scalar stage exactly — key bits, permutation and accounting — across
// lengths that pad and lengths that do not, with and without an index
// array, on keys full of ties, ±0, ±Inf and NaN payloads.
func TestNetMatchesPackageSort(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU lacks AVX2: only the scalar stage runs")
	}
	d := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
	defer d.Close()
	for _, n := range stageLengths {
		for seed := uint64(0); seed < 4; seed++ {
			keys := hardKeys(n, uint64(n)*31+seed)
			requireSameSort(t, d, keys, identity(n))
			requireSameSort(t, d, keys, nil)
		}
	}
}

// TestNetOnDeviceGroup runs both stages on the index patterns the
// network meets besides the identity: a reversed and a scrambled index
// array, and all-equal keys where the index decides every comparison,
// and checks the vector result against the stable reference.
func TestNetOnDeviceGroup(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU lacks AVX2: only the scalar stage runs")
	}
	d := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
	defer d.Close()
	for _, n := range stageLengths {
		rev := make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
		}
		scrambled := identity(n)
		for i := range scrambled {
			scrambled[i] = (i * 37) % (n + 1) // distinct, not in order
		}
		flat := make([]float64, n)
		for i := range flat {
			flat[i] = 1.5
		}
		keys := randomKeys(n, uint64(n)+11)
		for _, ks := range [][]float64{keys, flat} {
			requireSameSort(t, d, ks, rev)
			requireSameSort(t, d, ks, scrambled)
		}
		got, ix, _ := sortInLaunch(d, newNet(true), keys, identity(n))
		want := ArgsortDescending(keys)
		for i := range want {
			if ix[i] != want[i] || got[i] != keys[want[i]] {
				t.Fatalf("n=%d row %d: (%v,%d), want (%v,%d)", n, i, got[i], ix[i], keys[want[i]], want[i])
			}
		}
	}
}

// TestSortDescendingRejectsIndexLength requires a mismatched index
// array to panic before any stage runs, naming both lengths — whether
// the keys need padding or not.
func TestSortDescendingRejectsIndexLength(t *testing.T) {
	for _, tc := range []struct {
		keys []float64
		idx  []int
	}{
		{[]float64{1, 5, 3, 4, 2}, []int{0, 1, 2}},
		{[]float64{1, 5, 3, 4}, []int{0, 1}},
		{[]float64{1}, []int{0, 1}},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			NewNet().SortDescending(device.Serial{N: 8}, tc.keys, tc.idx)
			return ""
		}()
		want := fmt.Sprintf("%d keys but an index array of length %d", len(tc.keys), len(tc.idx))
		if !strings.Contains(msg, want) {
			t.Errorf("keys %v idx %v: panic %q, want one containing %q", tc.keys, tc.idx, msg, want)
		}
	}
}

// BenchmarkNetSort times one sub-filter sort as the kernels run it: an
// index array, inside a one-group device launch, for each stage.
func BenchmarkNetSort(b *testing.B) {
	d := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
	defer d.Close()
	for _, m := range []int{64, 128, 512} {
		for _, vector := range []bool{false, true} {
			name := fmt.Sprintf("m=%d/scalar", m)
			if vector {
				name = fmt.Sprintf("m=%d/avx2", m)
			}
			b.Run(name, func(b *testing.B) {
				if vector && !haveAVX2 {
					b.Skip("CPU lacks AVX2")
				}
				nt := newNet(vector)
				base := randomKeys(m, uint64(m))
				keys := make([]float64, m)
				idx := make([]int, m)
				grid := device.Grid{Groups: 1, GroupSize: m}
				kernel := func(g *device.Group) {
					copy(keys, base)
					for i := range idx {
						idx[i] = i
					}
					nt.SortDescending(g, keys, idx)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Launch("sort", grid, kernel)
				}
			})
		}
	}
}
