package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"esthera"
	"esthera/internal/device"
	"esthera/internal/filter"
	"esthera/internal/rng"
	"esthera/internal/telemetry"
)

// kernelStep advances f one step: fused through Filter.Step when tr is
// nil, otherwise as the six public Pipeline.Kernel* calls of one
// unfused round with a span around each. k is the round index the step
// will have (1 for the first step after a reset). Both paths are
// bit-identical by contract; the returned state is only valid until the
// next step.
func kernelStep(f *filter.Parallel, tr *telemetry.Tracer, u, z []float64, k int) ([]float64, float64) {
	if tr == nil {
		est := f.Step(u, z)
		return est.State, est.LogWeight
	}
	p := f.Pipeline()
	round, tc := begin(tr, "kernels.round_unfused", telemetry.TraceContext{})
	sp, _ := begin(tr, "kernels.rand", tc)
	p.KernelRand()
	sp.End()
	sp, _ = begin(tr, "kernels.sample", tc)
	p.KernelSampleWeight(u, z, k)
	sp.End()
	sp, _ = begin(tr, "kernels.sort", tc)
	p.KernelSortLocal()
	sp.End()
	sp, _ = begin(tr, "kernels.estimate", tc)
	state, lw := p.KernelEstimate()
	sp.End()
	sp, _ = begin(tr, "kernels.exchange", tc)
	p.KernelExchange()
	sp.End()
	sp, _ = begin(tr, "kernels.resample", tc)
	p.KernelResample()
	sp.End()
	round.End()
	return state, lw
}

// mix64 is the splitmix64 finalizer, used to derive per-session seeds
// from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sessionSeed is the filter seed of session i of a run.
func sessionSeed(seed uint64, i int) uint64 { return mix64(seed*1000003 + uint64(i)) }

// ungmFeed generates one UNGM sensor's measurements and ground truth.
type ungmFeed struct {
	m    esthera.Model
	sc   esthera.Scenario
	meas *rng.Rand
	x    []float64
	k    int
}

func newUNGMFeed(seed uint64, i int) *ungmFeed {
	m, sc := esthera.NewUNGMScenario(mix64(seed ^ uint64(i)<<32))
	return &ungmFeed{m: m, sc: sc, meas: rng.New(rng.NewPhiloxStream(seed, 0x4D53+i)),
		x: make([]float64, m.StateDim())}
}

// next returns the next measurement (a fresh slice) and the true state.
func (f *ungmFeed) next() ([]float64, float64) {
	f.k++
	f.sc.TrueState(f.k, f.x)
	z := make([]float64, f.m.MeasurementDim())
	f.m.Measure(z, f.x, f.meas)
	return z, f.x[0]
}

// newSessionFilter builds, standalone, the filter a server builds for
// FilterSpec{Model: "ungm", Seed: seed}: 16×64, ring t=1, RWS.
func newSessionFilter(seed uint64) (*filter.Parallel, error) {
	m, _ := esthera.NewUNGMScenario(0)
	return asParallel(esthera.NewFilter(m, esthera.Config{SubFilters: 16, ParticlesPerSubFilter: 64,
		ExchangeScheme: "ring", ExchangeCount: 1, Seed: seed}))
}

// asParallel unwraps what NewFilter returns, the device-backed filter
// whose pipeline the benchmark times kernel by kernel.
func asParallel(f esthera.Filter, err error) (*filter.Parallel, error) {
	if err != nil {
		return nil, err
	}
	pf, ok := f.(*filter.Parallel)
	if !ok {
		return nil, fmt.Errorf("NewFilter returned %T, not the parallel filter", f)
	}
	return pf, nil
}

// sessionLog is what one served session received and answered, in
// step order.
type sessionLog struct {
	seed  uint64
	zs    [][]float64
	lws   []uint64 // log-weight bits of each answer
	state []float64
}

func (l *sessionLog) record(z []float64, res esthera.StepResult) {
	l.zs = append(l.zs, z)
	l.lws = append(l.lws, math.Float64bits(res.LogWeight))
	l.state = res.State
}

// replay is the serving oracle: it steps a standalone filter with the
// exact measurements the session received and checks that every answer
// matches bit for bit, since batched and migrated stepping must equal
// unbatched stepping. With tr set it replays twice, recording the fused
// rounds' times and then each kernel of unfused rounds.
func replay(l *sessionLog, tr *telemetry.Tracer) error {
	if err := replayPass(l, tr, false); err != nil || tr == nil {
		return err
	}
	return replayPass(l, tr, true)
}

func replayPass(l *sessionLog, tr *telemetry.Tracer, unfused bool) error {
	f, err := newSessionFilter(l.seed)
	if err != nil {
		return err
	}
	defer f.Pipeline().Device().Close()
	var state []float64
	var lw float64
	for k, z := range l.zs {
		if unfused {
			state, lw = kernelStep(f, tr, nil, z, k+1)
		} else {
			sp, _ := begin(tr, "kernels.round_fused", telemetry.TraceContext{})
			state, lw = kernelStep(f, nil, nil, z, k+1)
			sp.End()
		}
		if got := math.Float64bits(lw); got != l.lws[k] {
			return fmt.Errorf("seed %d step %d: log-weight bits %016x, replay %016x", l.seed, k+1, l.lws[k], got)
		}
	}
	if len(l.zs) > 0 && !sameEstimate(l.state, math.Float64frombits(l.lws[len(l.lws)-1]), state, lw) {
		return fmt.Errorf("seed %d: final state differs from replay", l.seed)
	}
	return nil
}

// deviceTotals sums profiler snapshots over several devices.
func deviceTotals(devs []*device.Device) (launches, laneOps, globalBytes int64, busy time.Duration) {
	for _, d := range devs {
		st := d.Profiler().Stats()
		launches += st.TotalLaunches
		busy += st.TotalElapsed
		for _, k := range st.Kernels {
			laneOps += k.Count.LaneInvocations
			globalBytes += k.Count.GlobalBytes()
		}
	}
	return
}

// deviceWindow measures the device layer over an interval: exact
// per-step counts from the profilers and the devices' busy fraction.
type deviceWindow struct {
	devs                      []*device.Device
	launches, laneOps, gbytes int64
	busy                      time.Duration
}

func openDeviceWindow(devs ...*device.Device) deviceWindow {
	w := deviceWindow{devs: devs}
	w.launches, w.laneOps, w.gbytes, w.busy = deviceTotals(devs)
	return w
}

func (w deviceWindow) close(rep *report, wall time.Duration, steps int) {
	l, o, g, b := deviceTotals(w.devs)
	n := float64(steps)
	rep.set("device.launches_per_step", float64(l-w.launches)/n, steps)
	rep.set("device.laneops_per_step", float64(o-w.laneOps)/n, steps)
	rep.set("device.global_bytes_per_step", float64(g-w.gbytes)/n, steps)
	rep.set("device.busy_frac", float64(b-w.busy)/float64(wall)/float64(len(w.devs)), steps)
}

func sameEstimate(a []float64, alw float64, b []float64, blw float64) bool {
	if len(a) != len(b) || math.Float64bits(alw) != math.Float64bits(blw) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// setKernelMetrics reports the mean time of each kernel span as
// kernels.<name>_ms.
func setKernelMetrics(rep *report, spans map[string]*spanStats) {
	for _, s := range spans {
		if strings.HasPrefix(s.name, "kernels.") {
			rep.set(s.name+"_ms", s.meanMS(), s.count)
		}
	}
}
