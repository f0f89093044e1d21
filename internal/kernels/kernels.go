package kernels

import (
	"math"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/resample"
	"esthera/internal/sortnet"
)

// KernelRand is kernel 1 (§VI-A): each sub-filter's block buffer is
// refilled from its private stream — the work the paper isolates in a
// dedicated MTGP kernel so the sampling/resampling kernels stay small.
func (p *Pipeline) KernelRand() {
	p.dev.Launch("rand", p.grid(), p.randBody)
}

// randGroup is KernelRand's work-group body for sub-filter s. The group
// bodies are factored out of the launches so the cross-session batch
// scheduler (Batcher.Round) can coalesce the groups of many pipelines
// into a single shared launch.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) randGroup(g *device.Group, s int) {
	buf := p.bufs[s]
	g.StepOne(func() {
		words := buf.Refill()
		// MT-family generation plus the Box-Muller transform the
		// paper folds into the PRNG kernel: ~10 ops per word
		// (recurrence, tempering, and the transform's log/sincos
		// amortized), with the block written to global memory.
		g.Ops(10 * words)
		g.GlobalWrite(4 * words)
	})
}

// fusedPhases names the group-local phases of a fused round in launch
// order; the indices are the Group.Phase arguments used by fusedGroup.
// The names match the separate launches exactly, so the profiler's
// per-kernel breakdown is unchanged by fusion.
var fusedPhases = []string{"rand", "sampling", "local sort"}

// fusedGroup runs the three group-local kernel bodies (rand → sample /
// weight → local sort) back to back for sub-filter s, as one fused kernel
// execution. The phases only touch the sub-filter's own columns of global
// memory and its private random stream, so the launch boundaries the
// unfused path places between them are pure synchronization overhead —
// only the barrier *after* local sort is load-bearing (estimate and
// exchange read across groups). Buffers chain explicitly (cur → nxt →
// cur), so the fused round needs no double-buffer swaps for these phases
// and ends in the same buffer state as the unfused sequence of launches +
// swaps; per-phase RNG consumption order is untouched, keeping results
// bit-identical.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) fusedGroup(g *device.Group, s int, u, z []float64, k int) {
	g.Phase(0)
	p.randGroup(g, s)
	g.Phase(1)
	p.sampleGroup(g, s, u, z, k, p.cur, p.nxt)
	g.Phase(2)
	p.sortGroup(g, s, p.nxt, p.cur)
}

// KernelSampleWeight is kernel 2 (§VI-B): propagate every particle
// through the state-transition model using the buffered random words and
// assign its importance weight from the measurement. Sampling and
// weighting are fused in one kernel, as in the paper ("we can combine
// sampling and importance weight calculation in one kernel").
func (p *Pipeline) KernelSampleWeight(u, z []float64, k int) {
	p.curU, p.curZ, p.curK = u, z, k
	p.dev.Launch("sampling", p.grid(), p.sampleBody)
	p.cur, p.nxt = p.nxt, p.cur
}

// sampleGroup is KernelSampleWeight's work-group body for sub-filter s,
// reading particle columns from xin and writing propagated columns to
// xout. The unfused caller passes the double buffer halves and swaps them
// after the launch completes; the fused round chains buffers explicitly.
//
// The body is vectorized: one StepVec span hands the sub-filter's whole
// row range to the model's StepVec/LogLikelihoodVec, which stream
// unit-stride over the SoA columns. Draw order is preserved — the scalar
// path interleaves Step(lane)/LogLikelihood(lane), but LogLikelihood
// draws nothing, so all Step draws in ascending lane order replay the
// identical stream (the model.VecModel contract).
//
//esthera:hotpath noalloc bce
func (p *Pipeline) sampleGroup(g *device.Group, s int, u, z []float64, k int, xin, xout *soaBuf) {
	off, m := p.winOff[s], p.winLen[s]
	dim := p.dim
	vm := p.vms[s]
	r := p.rands[s]
	src := xin.sub[s]
	dst := xout.sub[s]
	vs, vd := p.vsrc[s], p.vdst[s]
	lws := p.logw[off : off+m : off+m]
	lls := p.ll[off : off+m : off+m]
	g.StepVec(func(lo, hi int) {
		// The launch group size is the largest window; smaller windows
		// clamp their span and idle the tail lanes (same in every body).
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		for c := 0; c < dim; c++ {
			vs[c] = src[c][lo:hi:hi]
			vd[c] = dst[c][lo:hi:hi]
		}
		vm.StepVec(vd, vs, u, k, r)
		ll := lls[lo:hi:hi]
		vm.LogLikelihoodVec(ll, vd, z)
		lw := lws[lo:hi:hi]
		for i := range lw {
			lw[i] += ll[i]
		}
	})
	g.GlobalRead(8 * dim * m)
	g.GlobalWrite((8*dim + 8) * m)
	// Propagation draws ~one normal per state dimension (log,
	// sqrt, sincos via Box-Muller) and the likelihood evaluates
	// the transcendental-heavy measurement equations (the arm's
	// rotation chain): ~160 flops per state dimension, which
	// makes sampling compute-bound on GPUs — the Fig. 4c effect
	// where the model increasingly dominates as state dimension
	// grows.
	g.Ops(160 * dim * m)
}

// KernelSortLocal is kernel 3 (§VI-C): each sub-filter bitonic-sorts its
// particles by weight, descending. Weights and the permutation index live
// in local memory; the particle payload in global memory is then
// reordered by the index array using non-contiguous reads and contiguous
// writes, the access pattern the paper prefers.
func (p *Pipeline) KernelSortLocal() {
	p.dev.Launch("local sort", p.grid(), p.sortBody)
	p.cur, p.nxt = p.nxt, p.cur
}

// sortGroup is KernelSortLocal's work-group body for sub-filter s,
// reading the particle columns from xin and writing the weight-sorted
// columns to xout. The unfused caller passes the double buffer halves and
// swaps them after the launch; the fused round chains buffers explicitly.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) sortGroup(g *device.Group, s int, xin, xout *soaBuf) {
	if p.cfg.Resampler == AlgoMetropolis {
		// Metropolis resampling needs no sorted input — that is its
		// point. Only the estimate and exchange kernels' contract
		// remains: slot 0 must hold the block's best particle and slots
		// 0..t-1 its published top-t, which a t-pass selection provides
		// without the full bitonic network's log²m barrier stages.
		p.topSelectGroup(g, s, xin, xout)
		return
	}
	off, m := p.winOff[s], p.winLen[s]
	dim := p.dim
	src := xin.sub[s]
	dst := xout.sub[s]
	lws := p.logw[off : off+m : off+m]
	keys := g.AllocLocalF64(m)
	idx := g.AllocLocalInt(m)
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		k := keys[lo:hi:hi]
		ix := idx[lo:hi:hi]
		lw := lws[lo:hi:hi]
		for i := range k {
			k[i] = lw[i]
			ix[i] = lo + i
		}
	})
	g.GlobalRead(8 * m)
	g.LocalWrite(12 * m)
	p.sorts[s].SortDescending(g, keys, idx)
	// Apply the permutation column by column: payload gather
	// (non-contiguous reads, contiguous unit-stride writes), then write
	// back sorted weights.
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		ix := idx[lo:hi:hi]
		for c := 0; c < dim; c++ {
			sc := src[c]
			dc := dst[c][lo:hi:hi]
			for i := range dc {
				dc[i] = sc[ix[i]]
			}
		}
	})
	g.LocalRead(4 * m)
	g.GlobalRead(8 * dim * m)
	g.GlobalWrite(8 * dim * m)
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		lw := lws[lo:hi:hi]
		k := keys[lo:hi:hi]
		for i := range lw {
			lw[i] = k[i]
		}
	})
	g.LocalRead(8 * m)
	g.GlobalWrite(8 * m)
}

// topSelectGroup is the local-sort phase under Metropolis resampling: a
// pass-through copy of the window plus a t-round selection moving the
// top-max(1,t) particles (by log-weight) into the leading slots, where
// the estimate and exchange kernels expect them. Each pass is one
// barrier-phased MaxIndex reduction over the remaining suffix and a
// lane-0 row swap — O(t·log m) work against the bitonic network's
// O(m·log²m), and crucially t ≪ m passes instead of the full sort's
// data-movement barrage. Slots beyond t keep sampling order, so the
// exchange's "worst slots" overwrite arbitrary (not worst) particles —
// the diversity tradeoff the EXPERIMENTS.md ablation quantifies.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) topSelectGroup(g *device.Group, s int, xin, xout *soaBuf) {
	off, m := p.winOff[s], p.winLen[s]
	dim := p.dim
	src := xin.sub[s]
	dst := xout.sub[s]
	lws := p.logw[off : off+m : off+m]
	// Pass-through copy into the out buffer (the fused round chains
	// buffers, so the phase must land its output in xout like the sort).
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		for c := 0; c < dim; c++ {
			copy(dst[c][lo:hi], src[c][lo:hi])
		}
	})
	g.GlobalRead(8 * dim * m)
	g.GlobalWrite(8 * dim * m)
	t := p.cfg.ExchangeCount
	if t < 1 {
		t = 1
	}
	if t > m {
		t = m
	}
	keys := g.AllocLocalF64(m)
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		k := keys[lo:hi:hi]
		lw := lws[lo:hi:hi]
		for i := range k {
			k[i] = lw[i]
		}
	})
	g.GlobalRead(8 * m)
	g.LocalWrite(8 * m)
	for pass := 0; pass < t; pass++ {
		best := pass + p.scans[s].MaxIndex(g, keys[pass:m])
		g.StepOne(func() {
			if best != pass {
				keys[pass], keys[best] = keys[best], keys[pass]
				lws[pass], lws[best] = lws[best], lws[pass]
				for c := 0; c < dim; c++ {
					dc := dst[c]
					dc[pass], dc[best] = dc[best], dc[pass]
				}
			}
			g.LocalRead(16)
			g.GlobalRead(16 * (dim + 1))
			g.GlobalWrite(16 * (dim + 1))
		})
	}
}

// KernelEstimate is kernel 4 (§VI-D): since every sub-filter just sorted,
// its best particle sits at slot 0; only the final reduction rounds over
// the N local bests remain. They run as one small launch, and the winning
// particle's state is copied out host-side (the only device-to-host
// traffic besides the measurement upload, per §VI). With
// Config.MeanEstimate the kernel instead reduces to the globally
// weight-averaged state. The returned slice is the pipeline's reused
// estimate buffer, overwritten by the next round.
func (p *Pipeline) KernelEstimate() ([]float64, float64) {
	p.observeRound()
	if p.cfg.MeanEstimate {
		return p.kernelEstimateMean()
	}
	return p.kernelEstimateMax()
}

// estGrid is the single-group reduction launch shape over the N block
// heads.
func (p *Pipeline) estGrid() device.Grid {
	lanes := p.cfg.SubFilters
	if lanes > 256 {
		lanes = 256
	}
	return device.Grid{Groups: 1, GroupSize: lanes}
}

// estHeadGroup loads the N sorted block-head log-weights and reduces to
// the index of the global best, leaving it in p.estBest.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) estHeadGroup(g *device.Group) {
	N := p.cfg.SubFilters
	heads := p.heads
	g.StepSpan(func(lo, hi int) {
		for i := 0; i < N; i++ {
			heads[i] = p.logw[p.winOff[i]]
		}
	})
	g.GlobalRead(8 * N)
	g.LocalWrite(8 * N)
	p.estBest = p.estScan.MaxIndex(g, heads)
}

// kernelEstimateMax reduces to the max-weight particle.
func (p *Pipeline) kernelEstimateMax() ([]float64, float64) {
	p.dev.Launch("global estimate", p.estGrid(), p.estHeadBody)
	best := p.estBest
	p.bestSub, p.bestLW = best, p.heads[best]
	out := p.estState
	for d, col := range p.cur.sub[best] {
		out[d] = col[0]
	}
	return out, p.bestLW
}

// kernelEstimateMean reduces to the globally weighted-average state: a
// first launch finds the global max log-weight (for stable
// exponentiation, using the sorted block heads), a second accumulates
// each sub-filter's weighted partial sums, and the host combines the N
// partials.
func (p *Pipeline) kernelEstimateMean() ([]float64, float64) {
	N := p.cfg.SubFilters
	dim := p.dim

	// Launch A: global max over the sorted block heads.
	p.dev.Launch("global estimate", p.estGrid(), p.estHeadBody)
	best := p.estBest
	maxLW := p.heads[best]
	p.bestSub, p.bestLW = best, maxLW
	out := p.estState
	if math.IsInf(maxLW, -1) || math.IsNaN(maxLW) {
		for d, col := range p.cur.sub[best] {
			out[d] = col[0]
		}
		return out, maxLW
	}

	// Launch B: per-sub-filter partial weighted sums (Σw·x per dim, then
	// Σw), accumulated into the pipeline's reusable scratch.
	p.estMaxLW = maxLW
	partial := p.partial
	for i := range partial {
		partial[i] = 0
	}
	p.dev.Launch("global estimate", p.grid(), p.estMeanBody)

	// Host-side final combine over N partials (the last reduction round).
	for d := range out {
		out[d] = 0
	}
	total := 0.0
	for s := 0; s < N; s++ {
		part := partial[s*(dim+1) : (s+1)*(dim+1)]
		for d := 0; d < dim; d++ {
			out[d] += part[d]
		}
		total += part[dim]
	}
	if total > 0 {
		for d := range out {
			out[d] /= total
		}
	}
	return out, maxLW
}

// estMeanGroup is the per-sub-filter body of the weighted-average
// estimate's second launch: exponentiate the block's log-weights against
// the global max, then accumulate Σw·x per dimension and Σw. The
// accumulation runs column-major over the SoA storage; each partial sum
// still receives its additions in ascending particle order, so the float
// results are bit-identical to the row-major traversal.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) estMeanGroup(g *device.Group, s int) {
	off, m := p.winOff[s], p.winLen[s]
	dim := p.dim
	maxLW := p.estMaxLW
	cols := p.cur.sub[s]
	lws := p.logw[off : off+m : off+m]
	wsum := g.AllocLocalF64(m)
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		w := wsum[lo:hi:hi]
		lw := lws[lo:hi:hi]
		for i := range w {
			w[i] = math.Exp(lw[i] - maxLW)
		}
	})
	g.Ops(m)
	g.GlobalRead(8 * m)
	g.LocalWrite(8 * m)
	// Lane 0 accumulates the block (a real kernel would tree-reduce;
	// the ops are counted either way).
	g.StepOne(func() {
		out := p.partial[s*(dim+1) : (s+1)*(dim+1)]
		for d := 0; d < dim; d++ {
			col := cols[d]
			acc := out[d]
			for i := 0; i < m; i++ {
				acc += wsum[i] * col[i]
			}
			out[d] = acc
		}
		wacc := out[dim]
		for i := 0; i < m; i++ {
			wacc += wsum[i]
		}
		out[dim] = wacc
		g.Ops(2 * dim * m)
		g.GlobalRead(8 * dim * m)
		g.GlobalWrite(8 * (dim + 1))
	})
}

// KernelExchange is kernel 5 (§VI-E). Two launches realize the paper's
// scheme: first every sub-filter publishes its best t particles (plus
// their weights) to its outbox in global memory; after the launch
// boundary (the device-wide synchronization point) every sub-filter pulls
// its neighbors' outboxes into its own worst slots. All-to-All inserts a
// selection launch that picks the globally best t of the pooled
// contributions, which every sub-filter then reads back — the "same t
// best particles" semantics that Fig. 6 shows destroys diversity.
//
// Outbox records stay AoS (dim+1 contiguous floats per particle): they
// are the wire format the shard/cluster layers ship between processes,
// so the SoA storage is packed/unpacked at this boundary.
func (p *Pipeline) KernelExchange() {
	t := p.cfg.ExchangeCount
	if t == 0 || p.cfg.SubFilters == 1 || p.cfg.Topology.Scheme() == exchange.None {
		return
	}

	// Launch A: publish top-t.
	p.dev.Launch("exchange", p.grid(), p.exchPubBody)

	if p.cfg.Topology.Scheme() == exchange.AllToAll {
		p.dev.Launch("exchange", p.poolGrid(), p.exchPoolBody)
		copy(p.poolSel, p.poolIdx[:t])
		p.dev.Launch("exchange", p.grid(), p.exchBcastBody)
		return
	}

	// Launch B: pull from neighbors into the worst slots.
	p.dev.Launch("exchange", p.grid(), p.exchPullBody)
}

// exchPublishGroup stages sub-filter s's top-t particles (which sit in
// slots 0..t-1 after the local sort) into its outbox records.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) exchPublishGroup(g *device.Group, s int) {
	t := p.cfg.ExchangeCount
	off := p.winOff[s]
	dim := p.dim
	stride := dim + 1
	cols := p.cur.sub[s]
	g.StepSpan(func(lo, hi int) {
		for lane := lo; lane < hi && lane < t; lane++ {
			rec := p.outbox[(s*t+lane)*stride : (s*t+lane+1)*stride]
			for d := 0; d < dim; d++ {
				rec[d] = cols[d][lane]
			}
			rec[dim] = p.logw[off+lane]
		}
	})
	g.GlobalRead(8 * stride * t)
	g.GlobalWrite(8 * stride * t)
}

// exchPullGroup pulls the neighbors' outbox records into sub-filter s's
// worst slots.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) exchPullGroup(g *device.Group, s int) {
	t := p.cfg.ExchangeCount
	off, m := p.winOff[s], p.winLen[s]
	dim := p.dim
	stride := dim + 1
	cols := p.cur.sub[s]
	var nbuf []int
	g.StepOne(func() { nbuf = p.nbrs[s] })
	incoming := len(nbuf) * t
	g.StepSpan(func(lo, hi int) {
		for lane := lo; lane < hi && lane < incoming; lane++ {
			q := nbuf[lane/t]
			i := lane % t
			slot := m - incoming + lane
			rec := p.outbox[(q*t+i)*stride : (q*t+i+1)*stride]
			for d := 0; d < dim; d++ {
				cols[d][slot] = rec[d]
			}
			p.logw[off+slot] = rec[dim]
		}
	})
	g.GlobalRead(8 * stride * incoming)
	g.GlobalWrite(8 * stride * incoming)
}

// poolGrid is the all-to-all selection launch shape over the N·t pooled
// records.
func (p *Pipeline) poolGrid() device.Grid {
	lanes := p.cfg.SubFilters * p.cfg.ExchangeCount
	if lanes > 512 {
		lanes = 512
	}
	return device.Grid{Groups: 1, GroupSize: lanes}
}

// exchPoolGroup sorts the pooled outbox records by weight, leaving the
// descending permutation in p.poolIdx.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) exchPoolGroup(g *device.Group) {
	dim := p.dim
	stride := dim + 1
	pool := p.cfg.SubFilters * p.cfg.ExchangeCount
	keys := p.poolKeys
	idx := p.poolIdx
	g.StepSpan(func(lo, hi int) {
		for i := 0; i < pool; i++ {
			keys[i] = p.outbox[i*stride+dim]
			idx[i] = i
		}
	})
	g.GlobalRead(8 * pool)
	g.LocalWrite(12 * pool)
	p.poolSort.SortDescending(g, keys, idx)
}

// exchBroadcastGroup copies the globally selected top-t records into
// sub-filter s's worst slots.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) exchBroadcastGroup(g *device.Group, s int) {
	t := p.cfg.ExchangeCount
	off, m := p.winOff[s], p.winLen[s]
	dim := p.dim
	stride := dim + 1
	cols := p.cur.sub[s]
	g.StepSpan(func(lo, hi int) {
		for lane := lo; lane < hi && lane < t; lane++ {
			src := p.poolSel[lane]
			slot := m - t + lane
			rec := p.outbox[src*stride : (src+1)*stride]
			for d := 0; d < dim; d++ {
				cols[d][slot] = rec[d]
			}
			p.logw[off+slot] = rec[dim]
		}
	})
	g.GlobalRead(8 * stride * t)
	g.GlobalWrite(8 * stride * t)
}

// KernelResample is kernel 6 (§VI-F): per-sub-filter local resampling.
// RWS initializes with a parallel (Blelloch) prefix sum over the local
// weights and draws with one binary search per lane; Vose builds the
// alias table with the in-place small/large packing described in the
// paper and draws with two uniforms per lane. Surviving states are
// gathered with non-contiguous reads and contiguous writes, and weights
// reset.
func (p *Pipeline) KernelResample() {
	p.dev.Launch("resampling", p.grid(), p.resampleBody)
	p.cur, p.nxt = p.nxt, p.cur
}

// resampleGroup is KernelResample's work-group body for sub-filter s.
// The caller swaps the double buffer after the launch completes.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) resampleGroup(g *device.Group, s int) {
	off, m := p.winOff[s], p.winLen[s]
	dim := p.dim
	src := p.cur.sub[s]
	dst := p.nxt.sub[s]
	r := p.rands[s]
	lws := p.logw[off : off+m : off+m]

	// Local linear weights, stabilized by the local max (slot 0
	// holds the max log-weight after sorting; after an exchange a
	// received particle may beat it, so reduce properly).
	w := g.AllocLocalF64(m)
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		wl := w[lo:hi:hi]
		lw := lws[lo:hi:hi]
		for i := range wl {
			wl[i] = lw[i]
		}
	})
	g.GlobalRead(8 * m)
	g.LocalWrite(8 * m)
	maxIdx := p.scans[s].MaxIndex(g, w)
	maxLW := w[maxIdx]
	degenerate := math.IsInf(maxLW, -1) || math.IsNaN(maxLW)
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		wl := w[lo:hi:hi]
		if degenerate {
			for i := range wl {
				wl[i] = 1
			}
		} else {
			for i := range wl {
				wl[i] = math.Exp(wl[i] - maxLW)
			}
		}
	})
	g.Ops(2 * m)
	g.LocalWrite(8 * m)

	resampled := false
	g.StepOne(func() {
		// Record the honest degeneracy signal while it still exists: the
		// ESS fraction of the weights the resampler is about to consume.
		// After this kernel the weights are uniform and the signal is
		// gone. Degenerate windows (NaN/±Inf max) read 0.
		if degenerate {
			p.essAtResample[s] = 0
		} else {
			var sum, sumSq float64
			for _, v := range w[:m] {
				sum += v
				sumSq += v * v
			}
			if sumSq == 0 {
				p.essAtResample[s] = 0
			} else {
				p.essAtResample[s] = sum * sum / sumSq / float64(m)
			}
		}
		resampled = p.cfg.Policy.ShouldResample(w, r)
		// Record the policy decision for health sampling; each group
		// owns its own flag slot, and readers wait for the launch.
		if resampled {
			p.resampleFlags[s] = 1
		} else {
			p.resampleFlags[s] = 0
		}
	})
	g.Ops(3 * m)
	g.LocalRead(8 * m)
	if !resampled {
		// Keep the population; copy through so the double buffer
		// stays coherent.
		g.StepVec(func(lo, hi int) {
			if hi > m {
				hi = m
			}
			if lo >= hi {
				return
			}
			for c := 0; c < dim; c++ {
				copy(dst[c][lo:hi], src[c][lo:hi])
			}
		})
		g.GlobalRead(8 * dim * m)
		g.GlobalWrite(8 * dim * m)
		return
	}

	sel := g.AllocLocalInt(m)
	switch p.cfg.Resampler {
	case AlgoVose:
		p.voseSelect(g, w, sel, s)
	case AlgoSystematic:
		p.systematicSelect(g, w, sel, s)
	case AlgoMetropolis:
		p.metropolisSelect(g, w, sel, s)
	default:
		p.rwsSelect(g, w, sel, s)
	}

	// Gather survivors column by column and reset weights.
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		ix := sel[lo:hi:hi]
		for c := 0; c < dim; c++ {
			sc := src[c]
			dc := dst[c][lo:hi:hi]
			for i := range dc {
				dc[i] = sc[ix[i]]
			}
		}
		lw := lws[lo:hi:hi]
		for i := range lw {
			lw[i] = 0
		}
	})
	g.LocalRead(4 * m)
	g.GlobalRead(8 * dim * m)
	g.GlobalWrite((8*dim + 8) * m)
}

// rwsSelect fills sel with RWS draws from the local weights w.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) rwsSelect(g *device.Group, w []float64, sel []int, s int) {
	m := len(w)
	r := p.rands[s]
	cdf := g.AllocLocalF64(m)
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		c := cdf[lo:hi:hi]
		wl := w[lo:hi:hi]
		for i := range c {
			c[i] = wl[i]
		}
	})
	g.LocalRead(8 * m)
	g.LocalWrite(8 * m)
	total := p.scans[s].Exclusive(g, cdf) // exclusive prefix sums + total
	if !(total > 0) {
		g.StepVec(func(lo, hi int) {
			if hi > m {
				hi = m
			}
			if lo >= hi {
				return
			}
			ix := sel[lo:hi:hi]
			for i := range ix {
				ix[i] = lo + i
			}
		})
		return
	}
	// One uniform + binary search per lane. Lane draws must happen in a
	// deterministic order, so draw them in a dedicated phase first.
	us := g.AllocLocalF64(m)
	g.StepOne(func() {
		r.FillUniforms(us)
		for i := range us {
			us[i] *= total
		}
		g.Ops(m)
	})
	// Search depth is data-dependent, so each lane tallies its own
	// iteration count in a lane-indexed scratch slot; the host sums them
	// after the barrier (identical totals, no cross-lane writes).
	//
	// The searches compare order-preserving integer images of the cdf
	// and the draws (sortnet.KeyImages) instead of the floats: integer
	// comparisons compile to conditional moves, removing the
	// ~50%-mispredicted branch per search level. The selected indices
	// and per-lane iteration counts are identical.
	icdf := g.ScratchInt(m)
	sortnet.KeyImages(icdf, cdf)
	laneIters := g.ScratchInt(m)
	g.StepSpan(func(spanLo, spanHi int) {
		if spanHi > m {
			spanHi = m
		}
		if spanLo >= spanHi {
			return
		}
		lane := spanLo
		if m&(m-1) == 0 {
			// For power-of-two m the halving recurrence visits interval
			// [lo, lo+2·step-1] with mid = lo+step for step = m/2, m/4,
			// …, 1 — a stride descent with exactly log2(m) levels per
			// lane. The levels form a serial load→compare chain, so four
			// lanes run interleaved to overlap their chains.
			for ; lane+4 <= spanHi; lane += 4 {
				iu0 := sortnet.KeyImage(us[lane])
				iu1 := sortnet.KeyImage(us[lane+1])
				iu2 := sortnet.KeyImage(us[lane+2])
				iu3 := sortnet.KeyImage(us[lane+3])
				lo0, lo1, lo2, lo3 := 0, 0, 0, 0
				n := 0
				for step := m >> 1; step > 0; step >>= 1 {
					// The flag-then-multiply form compiles to setcc
					// (branchless); `if { lo += step }` does not.
					s0, s1, s2, s3 := 0, 0, 0, 0
					if icdf[lo0+step] <= iu0 {
						s0 = 1
					}
					if icdf[lo1+step] <= iu1 {
						s1 = 1
					}
					if icdf[lo2+step] <= iu2 {
						s2 = 1
					}
					if icdf[lo3+step] <= iu3 {
						s3 = 1
					}
					lo0 += s0 * step
					lo1 += s1 * step
					lo2 += s2 * step
					lo3 += s3 * step
					n++
				}
				sel[lane], sel[lane+1], sel[lane+2], sel[lane+3] = lo0, lo1, lo2, lo3
				laneIters[lane], laneIters[lane+1], laneIters[lane+2], laneIters[lane+3] = n, n, n, n
			}
		}
		for ; lane < spanHi; lane++ {
			iu := sortnet.KeyImage(us[lane])
			// Largest index with cdf[idx] <= u (cdf is exclusive sums).
			lo, hi := 0, m-1
			n := 0
			for lo < hi {
				mid := int(uint(lo+hi+1) >> 1)
				nlo, nhi := mid, hi
				if icdf[mid] > iu {
					nlo, nhi = lo, mid-1
				}
				lo, hi = nlo, nhi
				n++
			}
			sel[lane] = lo
			laneIters[lane] = n
		}
	})
	iters := 0
	for _, n := range laneIters {
		iters += n
	}
	g.Ops(iters)
	g.LocalRead(8 * iters)
	g.LocalWrite(4 * m)
}

// systematicSelect fills sel with systematic draws: pointer i sweeps the
// CDF at (u₀ + i)·total/m for one shared uniform u₀. Initialization is
// the same parallel prefix sum as RWS; generation is one binary search
// per lane with no per-lane random draw.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) systematicSelect(g *device.Group, w []float64, sel []int, s int) {
	m := len(w)
	r := p.rands[s]
	cdf := g.AllocLocalF64(m)
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		c := cdf[lo:hi:hi]
		wl := w[lo:hi:hi]
		for i := range c {
			c[i] = wl[i]
		}
	})
	g.LocalRead(8 * m)
	g.LocalWrite(8 * m)
	total := p.scans[s].Exclusive(g, cdf)
	if !(total > 0) {
		g.StepVec(func(lo, hi int) {
			if hi > m {
				hi = m
			}
			if lo >= hi {
				return
			}
			ix := sel[lo:hi:hi]
			for i := range ix {
				ix[i] = lo + i
			}
		})
		return
	}
	u0 := 0.0
	g.StepOne(func() {
		u0 = r.Float64()
		g.Ops(1)
	})
	step := total / float64(m)
	// As in rwsSelect: per-lane search depths land in lane-indexed
	// scratch and are summed host-side after the barrier.
	laneIters := g.ScratchInt(m)
	g.StepSpan(func(spanLo, spanHi int) {
		if spanHi > m {
			spanHi = m
		}
		for lane := spanLo; lane < spanHi; lane++ {
			u := (u0 + float64(lane)) * step
			lo, hi := 0, m-1
			n := 0
			for lo < hi {
				mid := (lo + hi + 1) / 2
				if cdf[mid] <= u {
					lo = mid
				} else {
					hi = mid - 1
				}
				n++
			}
			sel[lane] = lo
			laneIters[lane] = n
		}
	})
	iters := 0
	for _, n := range laneIters {
		iters += n
	}
	g.Ops(iters)
	g.LocalRead(8 * iters)
	g.LocalWrite(4 * m)
}

// voseSelect fills sel with alias-method draws, building the table with
// the paper's in-place forward/backward packing (§VI-F): one array is
// filled forwards with "small" (weight < 1/m) entries and backwards with
// "large" entries, then weight is moved from large to small entries until
// every slot holds exactly 1/m, registering aliases along the way. The
// construction is the poorly-parallelizing part (concurrency "drops
// steeply towards one"), which is why Fig. 5 shows Vose losing at
// sub-filter sizes; we execute it on lane 0 and account its serial cost.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) voseSelect(g *device.Group, w []float64, sel []int, s int) {
	m := len(w)
	r := p.rands[s]
	prob := g.AllocLocalF64(m)
	alias := g.AllocLocalInt(m)
	packed := g.AllocLocalInt(m)

	total := 0.0
	g.StepOne(func() {
		for _, v := range w {
			total += v
		}
		g.Ops(m)
	})
	if !(total > 0) {
		g.StepVec(func(lo, hi int) {
			if hi > m {
				hi = m
			}
			if lo >= hi {
				return
			}
			ix := sel[lo:hi:hi]
			for i := range ix {
				ix[i] = lo + i
			}
		})
		return
	}
	// Scale to mean 1 and pack small forwards / large backwards — the
	// in-place split array. The packing and the alias assignment below
	// are the poorly-parallelizing sections, executed (and accounted) as
	// serial work.
	scale := float64(m) / total
	nSmall, nLarge := 0, 0
	g.StepSerial(func() {
		for i, v := range w {
			prob[i] = v * scale
			if prob[i] < 1 {
				packed[nSmall] = i
				nSmall++
			} else {
				nLarge++
				packed[m-nLarge] = i
			}
		}
		g.Ops(6 * m)
		g.LocalWrite(12 * m)
	})
	// Serial alias assignment.
	g.StepSerial(func() {
		si, li := 0, m-nLarge
		processed := 0
		for si < nSmall && li < m {
			l := packed[si]
			gi := packed[li]
			alias[l] = gi
			prob[gi] = (prob[gi] + prob[l]) - 1
			si++
			if prob[gi] < 1 {
				// The large entry became small: it needs an alias too;
				// append it to the small worklist region.
				packed[nSmall] = gi
				nSmall++
				li++
			}
			processed++
		}
		// Worklist management, weight transfer and alias
		// registration: ~14 serial ops per processed entry.
		g.Ops(14 * processed)
		g.LocalRead(16 * processed)
		g.LocalWrite(16 * processed)
		// Numerical leftovers on either worklist saturate at probability 1
		// (the alias table is guaranteed to exist; only float error can
		// leave entries behind).
		for ; li < m; li++ {
			gi := packed[li]
			prob[gi] = 1
			alias[gi] = gi
		}
		for ; si < nSmall; si++ {
			l := packed[si]
			prob[l] = 1
			alias[l] = l
		}
	})
	// Draws: two uniforms per lane, pre-drawn in deterministic order.
	us := g.AllocLocalF64(2 * m)
	g.StepOne(func() {
		r.FillUniforms(us)
		g.Ops(2 * m)
	})
	g.StepSpan(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		for lane := lo; lane < hi; lane++ {
			i := int(us[2*lane] * float64(m))
			if i >= m {
				i = m - 1
			}
			if us[2*lane+1] < prob[i] {
				sel[lane] = i
			} else {
				sel[lane] = alias[i]
			}
		}
	})
	g.Ops(3 * m)
	g.LocalRead(24 * m)
	g.LocalWrite(4 * m)
}

// metropolisSelect fills sel with Metropolis-chain draws (Murray et al.,
// arXiv:1202.6163): each lane runs an independent biased random walk
// over the particle indices, proposing a uniform index each step and
// accepting when u·w[cur] < w[proposal]. No prefix sum, no alias table,
// no sorted input — the only collective structure left is the
// barrier-phased alternation of one deterministic-order draw phase (the
// stream is shared per sub-filter, so the 2m uniforms of each chain step
// are drawn in a dedicated lane-0 phase, exactly like the other selects'
// pre-drawn uniforms) and one data-parallel walk phase. The chain length
// is MetropolisSteps(m) = 2·⌈log₂ m⌉ + 8 (resample.MetropolisSteps — the
// sequential reference uses the same schedule, and DESIGN.md §12 records
// the choice). All writes are lane-indexed (cur[lane], sel[lane]), so
// the barrier analyzer's no-cross-lane-write rule holds.
//
//esthera:hotpath noalloc bce
func (p *Pipeline) metropolisSelect(g *device.Group, w []float64, sel []int, s int) {
	m := len(w)
	r := p.rands[s]
	steps := resample.MetropolisSteps(m)
	cur := sel // chains walk in place: sel doubles as the chain state
	g.StepVec(func(lo, hi int) {
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		ix := cur[lo:hi:hi]
		for i := range ix {
			ix[i] = lo + i
		}
	})
	g.LocalWrite(4 * m)
	us := g.AllocLocalF64(2 * m)[: 2*m : 2*m]
	ws := w[:m:m]
	fm := float64(m)
	// One draw closure and one walk closure, bound once and stepped B
	// times — the chain loop itself allocates nothing.
	draw := func() {
		// Draw phase: 2m uniforms in deterministic stream order (one
		// proposal + one acceptance draw per lane).
		r.FillUniforms(us)
		g.Ops(2 * m)
	}
	walk := func(lo, hi int) {
		// Walk phase: every lane advances its own chain one step.
		if hi > m {
			hi = m
		}
		for lane := lo; lane < hi; lane++ {
			k := int(us[2*lane] * fm)
			if k >= m {
				k = m - 1
			}
			c := cur[lane]
			if us[2*lane+1]*ws[c] < ws[k] {
				cur[lane] = k
			}
		}
	}
	for b := 0; b < steps; b++ {
		g.StepOne(draw)
		g.StepSpan(walk)
	}
	g.Ops(4 * m * steps)
	g.LocalRead(24 * m * steps)
	g.LocalWrite(4 * m * steps)
}
