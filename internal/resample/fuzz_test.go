package resample

import (
	"math"
	"testing"

	"esthera/internal/rng"
)

// FuzzAliasTable drives Vose's construction with arbitrary weight bytes;
// the reconstruction invariant must hold (or the input be rejected by the
// uniform fallback) for every input the fuzzer finds.
func FuzzAliasTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 0, 0, 1, 128, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 512 {
			t.Skip()
		}
		ws := make([]float64, len(raw))
		total := 0.0
		for i, b := range raw {
			ws[i] = float64(b)
			total += ws[i]
		}
		tab := NewAliasTable(ws)
		if tab.Len() != len(ws) {
			t.Fatalf("table length %d, want %d", tab.Len(), len(ws))
		}
		rec := make([]float64, len(ws))
		n := float64(len(ws))
		for i := range ws {
			p := tab.Prob(i)
			if p < 0 || p > 1+1e-9 || math.IsNaN(p) {
				t.Fatalf("prob[%d] = %v", i, p)
			}
			a := tab.Alias(i)
			if a < 0 || a >= len(ws) {
				t.Fatalf("alias[%d] = %d out of range", i, a)
			}
			rec[i] += p / n
			rec[a] += (1 - p) / n
		}
		if total == 0 {
			return // uniform fallback: nothing more to check
		}
		for i, w := range ws {
			if math.Abs(rec[i]-w/total) > 1e-6 {
				t.Fatalf("reconstructed p[%d] = %v, want %v", i, rec[i], w/total)
			}
		}
	})
}

// FuzzResamplers checks every resampler's range invariant against
// arbitrary weights (including zeros, ties, and huge dynamic range).
func FuzzResamplers(f *testing.F) {
	f.Add([]byte{10, 20, 30}, uint8(3))
	f.Add([]byte{0, 0, 1}, uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, draws uint8) {
		if len(raw) == 0 || len(raw) > 256 || draws == 0 {
			t.Skip()
		}
		ws := make([]float64, len(raw))
		for i, b := range raw {
			// Exponential spacing stresses the CDF searches.
			ws[i] = math.Exp(float64(b)/16) - 1
		}
		dst := make([]int, int(draws))
		r := rng.New(rng.NewPhilox(uint64(len(raw))*1000 + uint64(draws)))
		for _, rs := range []Resampler{RWS{}, Vose{}, Systematic{}} {
			rs.Resample(dst, ws, r)
			for _, idx := range dst {
				if idx < 0 || idx >= len(ws) {
					t.Fatalf("%s: index %d out of [0,%d)", rs.Name(), idx, len(ws))
				}
				// A zero-weight particle may only be drawn when the whole
				// vector is degenerate.
			}
		}
	})
}
