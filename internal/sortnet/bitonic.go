// Package sortnet provides sorting-network primitives in barrier-phased
// data-parallel form.
//
// Each sub-filter sorts its particles by weight every round (§VI-C). The
// paper uses a bitonic sort — a fixed sequence of parallel
// compare-exchanges, O(n log² n) comparisons — keeping only the weights
// and an index array in local memory and applying the resulting
// permutation to the particle payload in global memory afterwards
// (preferring non-contiguous reads over non-contiguous writes). This
// package implements exactly that: the network operates on a
// (keys, index) pair; payload permutation lives in the kernels.
package sortnet

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"esthera/internal/device"
)

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// floatSortKeys writes order-preserving integer images of keys into iks:
// comparing images as ints gives exactly the float order of the keys (the
// radix-sort float trick — negative floats have their magnitude bits
// flipped so their bit patterns ascend with their values). The network's
// compare-exchange then runs entirely on integers, which the compiler
// lowers to flag materialization and masked selects instead of
// data-dependent branches — the branch predictor has a ~50% miss rate on
// sort comparisons, and each miss costs more than the whole exchange.
//
// -0.0 is normalized to +0.0 first so equal floats map to equal images
// (±0 is the only pair of distinct bit patterns that compare equal; NaN
// keys are unsupported, as documented on SortDescending). The transform
// preserves the sign bit and is therefore an involution: applying it to
// an image restores the key bits.
func floatSortKeys(iks []int, keys []float64) {
	KeyImages(iks, keys)
}

// KeyImage returns the order-preserving integer image of f: for non-NaN
// a, b, a < b ⇔ KeyImage(a) < KeyImage(b) and a == b ⇔ KeyImage(a) ==
// KeyImage(b). Kernels use it to replace hot float comparisons (sort
// networks, cdf binary searches) with integer ones, which compile to
// branchless flag materialization instead of mispredict-prone jumps.
//
//esthera:hotpath noalloc bce
func KeyImage(f float64) int {
	f += 0 // -0.0 + 0 = +0.0; every other value is unchanged
	b := int64(math.Float64bits(f))
	return int(b ^ int64(uint64(b>>63)>>1))
}

// KeyImages fills dst with KeyImage of each element of src.
//
//esthera:hotpath noalloc bce
func KeyImages(dst []int, src []float64) {
	dst = dst[:len(src)]
	for i, f := range src {
		f += 0
		b := int64(math.Float64bits(f))
		dst[i] = int(b ^ int64(uint64(b>>63)>>1))
	}
}

// sortKeysFloat inverts floatSortKeys, writing the float keys for the
// images in iks back into keys.
func sortKeysFloat(keys []float64, iks []int) {
	keys = keys[:len(iks)]
	for i, k := range iks {
		b := int64(k)
		b ^= int64(uint64(b>>63) >> 1)
		keys[i] = math.Float64frombits(uint64(b))
	}
}

// Net runs the bitonic network as barrier-phased steps on a device.Ctx.
// It pre-binds its stage closure once, so repeated SortDescending calls
// on hot kernel paths allocate nothing (a closure built per call would
// escape through the device.Ctx interface).
//
// A Net carries per-call mutable state and must not be shared between
// concurrently executing work-groups; create one per group context (the
// kernel pipeline keeps one per sub-filter).
type Net struct {
	keys []int // integer sort-key images (see floatSortKeys)
	idx  []int
	// tally holds the swap counts, one slot per lane for the scalar
	// stage and one per stage for the vector stage; the host sums it
	// after the last barrier.
	tally []int
	// st holds the stage parameters: n numbers the stage, and vec
	// selects stageAVX2 for this call's stages.
	st struct {
		k, j, n int
		vec     bool
	}
	vector bool // stageAVX2 is allowed
	step   func(lo, hi int)
}

// NewNet returns a Net with its stage closure bound. It runs the AVX2
// stage when the CPU supports it (see SortDescending) and the scalar
// stage otherwise.
func NewNet() *Net { return newNet(haveAVX2) }

// newNet binds a Net's stage closure; vector allows the AVX2 stage and
// must be false where haveAVX2 is.
//
// The scalar stage walks the stage's pairs directly instead of
// scanning all p lanes and skipping the upper partners: a stage's pairs
// are (i, i+j) for every i whose j bit is clear, i.e. runs of j
// consecutive lanes every 2j lanes. The sort direction bit (i & k) is
// constant within a run (all of off < j's bits sit below bit log2(k)),
// so it hoists out of the inner loop. Each compare-exchange is
// branchless: the swap flag is materialized from integer comparisons of
// the key images and applied as an XOR mask, so the loop body carries no
// data-dependent branches. The compare-exchange sequence — and therefore
// the resulting permutation and the data-dependent swap counts — is
// identical to the naive scan, and stageAVX2 performs the same sequence
// four lanes at a time.
func newNet(vector bool) *Net {
	nt := &Net{vector: vector}
	nt.step = func(lo, hi int) {
		if nt.st.vec {
			nt.tally[nt.st.n] = stageAVX2(nt.keys, nt.idx, nt.st.k, nt.st.j)
			return
		}
		keys, idx, laneSwaps := nt.keys, nt.idx, nt.tally
		k, j := nt.st.k, nt.st.j
		p := len(keys)
		j2 := j << 1
		for base := 0; base < p; base += j2 {
			desc := base&k == 0
			end := base + j
			if idx == nil {
				if desc {
					for i := base; i < end; i++ {
						a, b := keys[i], keys[i+j]
						s := 0
						if a < b {
							s = 1
						}
						x := (a ^ b) & -s
						keys[i], keys[i+j] = a^x, b^x
						laneSwaps[i] += s
					}
				} else {
					for i := base; i < end; i++ {
						a, b := keys[i], keys[i+j]
						s := 0
						if a > b {
							s = 1
						}
						x := (a ^ b) & -s
						keys[i], keys[i+j] = a^x, b^x
						laneSwaps[i] += s
					}
				}
				continue
			}
			if desc {
				for i := base; i < end; i++ {
					a, b := keys[i], keys[i+j]
					ia, ib := idx[i], idx[i+j]
					lt, eq, tb := 0, 0, 0
					if a < b {
						lt = 1
					}
					if a == b {
						eq = 1
					}
					if ia > ib {
						tb = 1
					}
					s := lt | eq&tb
					m := -s
					xk := (a ^ b) & m
					xi := (ia ^ ib) & m
					keys[i], keys[i+j] = a^xk, b^xk
					idx[i], idx[i+j] = ia^xi, ib^xi
					laneSwaps[i] += s
				}
			} else {
				for i := base; i < end; i++ {
					a, b := keys[i], keys[i+j]
					ia, ib := idx[i], idx[i+j]
					gt, eq, tb := 0, 0, 0
					if a > b {
						gt = 1
					}
					if a == b {
						eq = 1
					}
					if ia < ib {
						tb = 1
					}
					s := gt | eq&tb
					m := -s
					xk := (a ^ b) & m
					xi := (ia ^ ib) & m
					keys[i], keys[i+j] = a^xk, b^xk
					idx[i], idx[i+j] = ia^xi, ib^xi
					laneSwaps[i] += s
				}
			}
		}
	}
	return nt
}

// SortDescending sorts keys into descending order in place using a
// bitonic network, applying the identical permutation to idx. If idx is
// nil it is ignored; if present, it must have len(keys) elements, and
// equal keys are ordered by ascending idx (making the network stable with
// respect to the index array, and keeping padding sentinels out of the
// live region even when genuine -Inf keys are present). Non-power-of-two
// lengths are handled by padding with (-Inf, large-index) sentinels in a
// scratch buffer. NaN keys are not supported.
//
// The network is executed as barrier-phased steps on ctx, one StepSpan
// per stage. A stage runs stageAVX2 when the CPU has AVX2, an index
// array is in play (the caller's, or the padding's) and the padded
// length is at least 4; otherwise the scalar stage. Both compare the
// same integer key images in the same order, so keys, idx and the
// accounted counters are identical either way.
//
//esthera:hotpath noalloc bce
func (nt *Net) SortDescending(ctx device.Ctx, keys []float64, idx []int) {
	n := len(keys)
	if idx != nil && len(idx) != n {
		panicIndexLen(n, len(idx))
	}
	if n <= 1 {
		return
	}
	p := nextPow2(n)
	ks := keys
	ix := idx
	if p != n {
		ks = ctx.ScratchF64(p)
		copy(ks, keys)
		for i := n; i < p; i++ {
			ks[i] = math.Inf(-1)
		}
		// Padding always carries an index array so sentinels lose ties
		// against genuine -Inf keys (their near-MaxInt indices sort last
		// regardless of the caller's index values).
		const maxInt = int(^uint(0) >> 1)
		ix = ctx.ScratchInt(p)
		if idx != nil {
			copy(ix, idx)
			for i := n; i < p; i++ {
				ix[i] = maxInt - (p - 1 - i)
			}
		} else {
			for i := 0; i < n; i++ {
				ix[i] = 0 // ties irrelevant without a caller index array
			}
			for i := n; i < p; i++ {
				ix[i] = 1
			}
		}
	}
	nt.bitonic(ctx, ks, ix)
	if p != n {
		copy(keys, ks[:n])
		if idx != nil {
			copy(idx, ix[:n])
		}
	}
}

// panicIndexLen rejects an index array whose length differs from the
// keys': the vector stage's loads are unchecked, so a short idx would be
// read and written out of bounds.
//
//go:noinline
func panicIndexLen(keys, idx int) {
	panic(fmt.Sprintf("sortnet: SortDescending with %d keys but an index array of length %d", keys, idx))
}

// bitonic runs the network on a power-of-two buffer (len(idx) ==
// len(keys) when idx is non-nil), producing descending order.
//
// The network executes 0.5·log²p barrier-phased steps, reusing one
// pre-bound stage closure, and the per-compare-exchange cost accounting
// is flushed once at the end — the totals are exactly those of
// per-exchange accounting, without an interface call per pair. Pair
// counts are deterministic (a stage compares exactly p/2 disjoint pairs:
// ixj > i iff bit j of i is clear) and accumulate host-side; swap counts
// are data-dependent, so the stage closure writes them to tally slots
// that the host sums after the last barrier — no cross-lane writes in
// the closure.
//
//esthera:hotpath noalloc bce
func (nt *Net) bitonic(ctx device.Ctx, keys []float64, idx []int) {
	p := len(keys)
	// The network runs on integer images of the keys (floatSortKeys), so
	// each compare-exchange is branchless: flag materialization plus
	// XOR-mask selects, no data-dependent branches for the predictor to
	// miss. The images are transformed back once after the last stage.
	iks := ctx.ScratchInt(p)
	floatSortKeys(iks, keys)
	nt.keys, nt.idx = iks, idx
	lg := bits.Len(uint(p)) - 1
	stages := lg * (lg + 1) / 2
	nt.st.vec = nt.vector && idx != nil && p >= 4
	if nt.st.vec {
		nt.tally = ctx.ScratchInt(stages)
	} else {
		nt.tally = ctx.ScratchInt(p)
	}
	nt.st.n = 0
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			nt.st.k, nt.st.j = k, j
			ctx.StepSpan(nt.step)
			nt.st.n++
		}
	}
	sortKeysFloat(keys, iks)
	pairs := stages * (p / 2)
	swaps := 0
	for _, c := range nt.tally {
		swaps += c
	}
	// A compare-exchange costs the comparison plus the partner-index
	// arithmetic, predication and bank-conflict-prone local accesses
	// (~12 ops, keys and index array traffic); swaps write both entries
	// of both arrays back.
	ctx.Ops(12 * pairs)
	ctx.LocalRead(24 * pairs)
	ctx.LocalWrite(24 * swaps)
}

// ArgsortDescending returns the permutation that sorts keys descending,
// leaving keys untouched. It is the sequential reference TopK's tests
// compare against. The sort is stable, so equal keys keep their original
// relative order.
func ArgsortDescending(keys []float64) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] > keys[idx[b]] })
	return idx
}

// TopK returns the indices of the k largest keys in descending key order,
// without sorting the rest (selection via partial heap). k is clamped to
// len(keys). It backs the "local maximum instead of full sort" variant
// the paper suggests as a cheaper alternative (§VI-C).
func TopK(keys []float64, k int) []int {
	n := len(keys)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	// Min-heap of size k over (key, index).
	heapKeys := make([]float64, 0, k)
	heapIdx := make([]int, 0, k)
	less := func(a, b int) bool {
		if heapKeys[a] != heapKeys[b] {
			return heapKeys[a] < heapKeys[b]
		}
		return heapIdx[a] > heapIdx[b] // larger index = "smaller" for ties
	}
	down := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < n && less(l, s) {
				s = l
			}
			if r < n && less(r, s) {
				s = r
			}
			if s == i {
				return
			}
			heapKeys[i], heapKeys[s] = heapKeys[s], heapKeys[i]
			heapIdx[i], heapIdx[s] = heapIdx[s], heapIdx[i]
			i = s
		}
	}
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(i, parent) {
				return
			}
			heapKeys[i], heapKeys[parent] = heapKeys[parent], heapKeys[i]
			heapIdx[i], heapIdx[parent] = heapIdx[parent], heapIdx[i]
			i = parent
		}
	}
	for i, v := range keys {
		if len(heapKeys) < k {
			heapKeys = append(heapKeys, v)
			heapIdx = append(heapIdx, i)
			up(len(heapKeys) - 1)
			continue
		}
		if v > heapKeys[0] {
			heapKeys[0], heapIdx[0] = v, i
			down(0, k)
		}
	}
	// Drain the heap into descending order.
	out := make([]int, k)
	for size := k; size > 0; size-- {
		out[size-1] = heapIdx[0]
		heapKeys[0], heapIdx[0] = heapKeys[size-1], heapIdx[size-1]
		heapKeys = heapKeys[:size-1]
		heapIdx = heapIdx[:size-1]
		down(0, size-1)
	}
	return out
}
