package filter

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// UniqueParticleFraction returns the fraction of distinct states in a
// flat particle array (n × dim). Resampling and particle exchange
// introduce duplicates; this is the direct measurement of the diversity
// loss the paper blames for All-to-All's poor accuracy (§VII-D1: "a loss
// of diversity among the whole particle population as the same particles
// are fed into all sub-filters").
func UniqueParticleFraction(particles []float64, dim int) float64 {
	if dim <= 0 || len(particles) == 0 {
		return 0
	}
	n := len(particles) / dim
	seen := make(map[uint64]struct{}, n)
	var buf [8]byte
	for i := 0; i < n; i++ {
		h := fnv.New64a()
		for _, v := range particles[i*dim : (i+1)*dim] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		seen[h.Sum64()] = struct{}{}
	}
	return float64(len(seen)) / float64(n)
}

// Diversity returns the unique-particle fraction of the parallel filter's
// current population.
func (f *Parallel) Diversity() float64 {
	return UniqueParticleFraction(f.p.Particles(), f.dim)
}
