package rng

import "testing"

// Generator throughput benchmarks, mirroring the paper's §VII-C PRNG
// discussion (MTGP is tuned for GPUs; SFMT-class generators win on CPUs;
// counter-based generators avoid the state problem entirely).

func benchSource(b *testing.B, src Source) {
	b.Helper()
	b.SetBytes(8)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= src.Uint64()
	}
	benchSink = sink
}

var benchSink uint64

func BenchmarkMT19937(b *testing.B)  { benchSource(b, NewMT19937(1)) }
func BenchmarkMTGP(b *testing.B)     { benchSource(b, NewMTGP(1, 0)) }
func BenchmarkPhilox(b *testing.B)   { benchSource(b, NewPhilox(1)) }
func BenchmarkSplitMix(b *testing.B) { benchSource(b, NewSplitMix64(1)) }

func BenchmarkMTGPBlock(b *testing.B) {
	g := NewMTGP(1, 0)
	buf := make([]uint32, 4096)
	b.SetBytes(4 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Block(buf)
	}
}

func BenchmarkPhiloxBlock(b *testing.B) {
	g := NewPhilox(1)
	buf := make([]uint32, 4096)
	b.SetBytes(4 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Block(buf)
	}
}

func BenchmarkBoxMullerNormals(b *testing.B) {
	r := New(NewPhilox(1))
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	benchSinkF = sink
}

var benchSinkF float64
