package sortnet

import (
	"math"
	"testing"

	"esthera/internal/device"
)

// fuzzKey maps one fuzz byte to a key: the top bytes are the special
// values (±Inf, -0, NaNs with assorted payloads and signs), the rest the
// integers -128..121, so short inputs are full of ties.
func fuzzKey(b byte) float64 {
	switch b {
	case 255:
		return math.Inf(1)
	case 254:
		return math.Inf(-1)
	case 253:
		return math.Copysign(0, -1)
	case 252:
		return math.Float64frombits(0x7ff8000000000001) // quiet NaN
	case 251:
		return math.Float64frombits(0xfff8000000001234) // negative quiet NaN
	case 250:
		return math.Float64frombits(0x7ff0000000000001) // signalling NaN
	default:
		return float64(b) - 128
	}
}

// FuzzBitonicSort checks the network against the stable reference
// ArgsortDescending for arbitrary inputs, including negatives, ties,
// ±0 and infinities: the index array must be exactly the stable
// permutation, since the network breaks ties by ascending index. Inputs
// with NaN keys (unsupported by the order) are checked only for the
// agreement below. Where the CPU has AVX2, the vector and scalar stages
// must also agree on key bits, index array and counters.
func FuzzBitonicSort(f *testing.F) {
	f.Add([]byte{5, 3, 9, 1})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 0, 0, 128})
	f.Add([]byte{252, 128, 251, 253, 250, 255, 254, 128, 253, 7})
	f.Add([]byte{128, 253, 128, 253, 253, 128, 255, 254})
	for _, n := range []int{63, 64, 65, 128} {
		flat := make([]byte, n)
		mixed := make([]byte, n)
		for i := range flat {
			flat[i] = 77
			mixed[i] = byte(i*151) ^ byte(n)
		}
		f.Add(flat)
		f.Add(mixed)
	}
	d := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
	defer d.Close()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 1024 {
			t.Skip()
		}
		ks := make([]float64, len(raw))
		hasNaN := false
		for i, b := range raw {
			ks[i] = fuzzKey(b)
			hasNaN = hasNaN || math.IsNaN(ks[i])
		}
		if haveAVX2 {
			requireSameSort(t, d, ks, identity(len(ks)))
			requireSameSort(t, d, ks, nil)
		}
		if hasNaN {
			return
		}
		got, idx, _ := sortInLaunch(d, NewNet(), ks, identity(len(ks)))
		want := ArgsortDescending(ks)
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("idx[%d] = %d, want %d (input %v)", i, idx[i], want[i], ks)
			}
			if got[i] != ks[want[i]] {
				t.Fatalf("keys[%d] = %v, want %v (input %v)", i, got[i], ks[want[i]], ks)
			}
		}
	})
}
