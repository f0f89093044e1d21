package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"esthera"
	"esthera/internal/filter"
	"esthera/internal/rng"
	"esthera/internal/telemetry"
)

// armEpisode is one lap of the lemniscate the arm's target follows
// (arm.DefaultLemniscate has a 200-step period). The filter is reset at
// the start of every episode, so every completed episode of a run must
// produce the same estimates bit for bit as that episode's first pass.
const armEpisode = 200

// armEpisodes is how many distinct episodes a run cycles through, each
// with its own measurement noise and filter seed; rmse_m covers the
// first pass of all of them, enough laps that it varies little with the
// workload seed.
const armEpisodes = 8

// armSetups is how many times set-up is repeated; setup_s is the median.
const armSetups = 9

// armInputs are one episode's generated controls and measurements plus
// the true tracked position at each step.
type armInputs struct {
	seed   uint64
	us, zs [][]float64
	tx, ty []float64
}

func newArmEpisodes(seed uint64) ([]armInputs, error) {
	m, sc, err := esthera.NewArmScenario(5)
	if err != nil {
		return nil, err
	}
	eps := make([]armInputs, armEpisodes)
	x := make([]float64, m.StateDim())
	for e := range eps {
		in := &eps[e]
		in.seed = sessionSeed(seed, e)
		meas := rng.New(rng.NewPhiloxStream(seed, 0x4D53+e))
		for k := 1; k <= armEpisode; k++ {
			u := make([]float64, m.ControlDim())
			z := make([]float64, m.MeasurementDim())
			sc.TrueState(k, x)
			sc.Control(k, u)
			m.Measure(z, x, meas)
			tx, ty := m.TrackedPosition(x)
			in.us, in.zs = append(in.us, u), append(in.zs, z)
			in.tx, in.ty = append(in.tx, tx), append(in.ty, ty)
		}
	}
	return eps, nil
}

// armRefs holds each episode's first-pass checksum and squared error
// (checksum 0: not yet run).
type armRefs struct {
	h  [armEpisodes]uint64
	sq [armEpisodes]float64
}

// rmse is the tracking error over the first pass of every episode.
func (r *armRefs) rmse() (float64, error) {
	sq := 0.0
	for e, h := range r.h {
		if h == 0 {
			return 0, fmt.Errorf("episode %d never completed", e)
		}
		sq += r.sq[e]
	}
	return math.Sqrt(sq / (armEpisodes * armEpisode)), nil
}

// newArmFilter builds the paper's Table II filter (120×128, ring t=1,
// RWS) on the 5-joint arm. The device takes GOMAXPROCS workers.
func newArmFilter(seed uint64) (*filter.Parallel, error) {
	m, _, err := esthera.NewArmScenario(5)
	if err != nil {
		return nil, err
	}
	cfg := esthera.DefaultConfig()
	cfg.Seed = seed
	return asParallel(esthera.NewFilter(m, cfg))
}

func closeArm(f *filter.Parallel) { f.Pipeline().Device().Close() }

// episodeSum accumulates one episode's estimates: a checksum (64-bit
// FNV-1a over their bits) and the squared tracking error.
type episodeSum struct {
	h  uint64
	sq float64
}

func (e *episodeSum) reset() { *e = episodeSum{h: 14695981039346656037} }

func (e *episodeSum) add(in *armInputs, k int, state []float64, lw float64) {
	mix := func(v float64) {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			e.h ^= b & 0xff
			e.h *= 1099511628211
			b >>= 8
		}
	}
	for _, v := range state {
		mix(v)
	}
	mix(lw)
	ex, ey := armModel.TrackedPosition(state)
	dx, dy := ex-in.tx[k], ey-in.ty[k]
	e.sq += dx*dx + dy*dy
}

// armModel is the 5-joint arm, used only to read tracked positions.
var armModel, _, _ = esthera.NewArmScenario(5)

// armTrips is how many state round trips follow each measured episode.
const armTrips = 10

// armPhase is one phase of stepping: its step timings, and its wall and
// CPU time spent outside the steps' episodes (in between).
type armPhase struct {
	steps, episodes   int
	lat               sample
	wall              time.Duration
	pausedCPU, paused time.Duration
}

// runArmPhase steps f through the episodes in turn, from the first,
// until at least d of stepping has passed and at least minEpisodes
// episodes completed; the last episode may be cut short. A completed
// episode either sets its reference in refs or must match it, and is
// followed by a call of between (when set), whose time the phase does
// not count.
func runArmPhase(f *filter.Parallel, tr *telemetry.Tracer, eps []armInputs, d time.Duration, minEpisodes int, refs *armRefs, between func(), rep *report, label string) armPhase {
	var ph armPhase
	var ep episodeSum
	start := time.Now()
	elapsed := func() time.Duration { return time.Since(start) - ph.paused }
	for n := 0; ph.episodes < minEpisodes || elapsed() < d; n++ {
		e, k := (n/armEpisode)%len(eps), n%armEpisode
		in := &eps[e]
		if k == 0 {
			f.Reset(in.seed)
			ep.reset()
		}
		t0 := time.Now()
		state, lw := kernelStep(f, tr, in.us[k], in.zs[k], k+1)
		ph.lat.addAt(time.Since(t0), elapsed())
		ph.steps++
		ep.add(in, k, state, lw)
		if k < armEpisode-1 {
			continue
		}
		switch {
		case refs.h[e] == 0:
			refs.h[e], refs.sq[e] = ep.h, ep.sq
		case ep.h != refs.h[e]:
			rep.mismatch("%s pass of episode %d: checksum %016x, want %016x", label, e, ep.h, refs.h[e])
		}
		ph.episodes++
		if between != nil {
			t0, c0 := time.Now(), cpuTime()
			between()
			ph.paused += time.Since(t0)
			ph.pausedCPU += cpuTime() - c0
		}
	}
	ph.wall = elapsed()
	return ph
}

// runTrackArm is the paper's own evaluation: one filter, one caller,
// closed loop over the lemniscate.
func runTrackArm(cfg runConfig) (*report, error) {
	rep := newReport()
	eps, err := newArmEpisodes(cfg.seed)
	if err != nil {
		return nil, err
	}
	setups := 1
	if !cfg.trace {
		setups = armSetups
	}
	var setup []float64
	var fs []*filter.Parallel
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		f, err := newArmFilter(cfg.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		fs = append(fs, f)
	}
	defer func() {
		for _, f := range fs {
			closeArm(f)
		}
	}()
	f := fs[0]

	// One untimed episode warms caches and lazy set-up.
	var refs armRefs
	runArmPhase(f, nil, eps, 0, 1, &refs, nil, rep, "warm-up")
	if cfg.trace {
		return traceTrackArm(cfg, f, eps, &refs, rep)
	}

	// Moving the filter's state: Snapshot and RestoreSnapshot into a
	// second filter, armTrips times after every episode, so the round
	// trips sample the whole window.
	g := fs[1]
	var mig sample
	trips := func() {
		for i := 0; i < armTrips; i++ {
			rep.attempted++
			t0 := time.Now()
			if err := g.RestoreSnapshot(f.Snapshot()); err != nil {
				rep.failed++
				continue
			}
			mig.add(time.Since(t0))
		}
	}
	w := openWindow()
	ph := runArmPhase(f, nil, eps, cfg.seconds, armEpisodes, &refs, trips, rep, "measured")
	cost := w.close()
	rep.attempted += int64(ph.steps)
	rep.set("setup_s", median(setup), len(setup))
	setSteps(rep, &ph.lat, 0, ph.wall)
	rep.set("cpu_us_per_step", float64((cost.cpu-ph.pausedCPU).Microseconds())/float64(ph.steps), ph.steps)
	rmse, err := refs.rmse()
	if err != nil {
		return nil, err
	}
	rep.set("rmse_m", rmse, armEpisodes*armEpisode)
	rep.set("migrate_p50_ms", mig.q(0.5), len(mig.v))

	// The restored filter must step exactly like its source.
	if err := g.RestoreSnapshot(f.Snapshot()); err != nil {
		return nil, err
	}
	a, b := f.Step(eps[0].us[0], eps[0].zs[0]), g.Step(eps[0].us[0], eps[0].zs[0])
	if !sameEstimate(a.State, a.LogWeight, b.State, b.LogWeight) {
		rep.mismatch("restored filter diverged: log-weight %x vs %x", math.Float64bits(b.LogWeight), math.Float64bits(a.LogWeight))
	}
	return rep, nil
}

// traceTrackArm is the traced run: the fused path untraced (A), the
// unfused Kernel* path traced (B), and the fused path at GOMAXPROCS=1
// (C). Every episode each completes must reproduce its first pass.
func traceTrackArm(cfg runConfig, f *filter.Parallel, eps []armInputs, refs *armRefs, rep *report) (*report, error) {
	third := cfg.seconds / 3
	dw := openDeviceWindow(f.Pipeline().Device())
	w := openWindow()
	a := runArmPhase(f, nil, eps, third, 1, refs, nil, rep, "fused")
	cost := w.close()
	dw.close(rep, a.wall, a.steps)

	tr := newTracer()
	b := runArmPhase(f, tr, eps, third, 1, refs, nil, rep, "unfused")
	spans, err := finishTrace(cfg, tr, "track-arm")
	if err != nil {
		return nil, err
	}

	prev := runtime.GOMAXPROCS(1)
	one, err := newArmFilter(cfg.seed)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		return nil, err
	}
	c := runArmPhase(one, nil, eps, third, 1, refs, nil, rep, "gomaxprocs=1")
	closeArm(one)
	runtime.GOMAXPROCS(prev)

	rep.attempted = int64(a.steps + b.steps + c.steps)
	steps := float64(a.steps)
	rep.set("runtime.allocs_per_step", float64(cost.mallocs)/steps, a.steps)
	rep.set("runtime.gc_pause_ms", float64(cost.gcPause)/1e6, a.steps)
	rep.set("kernels.round_fused_ms", a.lat.mean(), a.steps)
	setKernelMetrics(rep, spans)
	aRate := float64(a.steps) / a.wall.Seconds()
	rep.set("device.scaling_x", aRate/(float64(c.steps)/c.wall.Seconds()), a.steps+c.steps)
	rep.set("trace.slowdown_x", aRate/(float64(b.steps)/b.wall.Seconds()), a.steps+b.steps)
	return rep, nil
}
