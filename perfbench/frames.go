package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"esthera"
	"esthera/internal/rng"
	"esthera/internal/telemetry"
)

// serve-frames shape: 64 independent 30 Hz sensors, 1920 steps/s in
// total, each session the default 16×64 UNGM filter.
const (
	frameSessions = 64
	frameHz       = 30
	frameSetups   = 5
	// frameJitter bounds each frame's deviation from its sensor's grid.
	frameJitter = 2 * time.Millisecond
	// frameOracles is how many sessions the oracle replays.
	frameOracles = 4
)

// frameSession is one sensor: its session, its frame schedule (offsets
// from the run's start) and what it sent and received.
type frameSession struct {
	id    string
	due   []time.Duration
	zs    [][]float64
	truth []float64
	next  int // next frame to send
	log   sessionLog
	sqErr float64
}

// frameServer is one set-up: the server and its sessions.
type frameServer struct {
	srv      *esthera.Server
	sessions []*frameSession
	// mover is one more session, stepped only by moveLoop, which moves
	// it to a new session each time; feed makes its measurements.
	mover string
	feed  *ungmFeed
}

// newFrameServer starts a default-config server and creates the
// sessions.
func newFrameServer(seed uint64) (*frameServer, error) {
	fs := &frameServer{srv: esthera.NewServer(esthera.ServerConfig{})}
	for i := 0; i < frameSessions; i++ {
		id, err := fs.srv.Create(esthera.FilterSpec{Model: "ungm", Seed: sessionSeed(seed, i)})
		if err != nil {
			fs.srv.Shutdown()
			return nil, err
		}
		fs.sessions = append(fs.sessions, &frameSession{id: id, log: sessionLog{seed: sessionSeed(seed, i)}})
	}
	id, err := fs.srv.Create(esthera.FilterSpec{Model: "ungm", Seed: sessionSeed(seed, frameSessions)})
	if err != nil {
		fs.srv.Shutdown()
		return nil, err
	}
	fs.mover, fs.feed = id, newUNGMFeed(seed, frameSessions)
	return fs, nil
}

// schedule generates each sensor's frames due before total: sensor i's
// phase is drawn from the i-th of len(sessions) equal slices of the
// frame period, so the sensors spread over the period as free-running
// cameras do, then one frame per period with jitter.
func (fs *frameServer) schedule(seed uint64, total time.Duration) {
	r := rng.New(rng.NewPhiloxStream(seed, 0x4652))
	period := time.Second / frameHz
	for i, s := range fs.sessions {
		phase := time.Duration((float64(i) + r.Float64()) / float64(len(fs.sessions)) * float64(period))
		feed := newUNGMFeed(seed, i)
		for k := 0; ; k++ {
			jit := time.Duration((2*r.Float64() - 1) * float64(frameJitter))
			due := phase + time.Duration(k)*period + jit
			if due < 0 {
				due = 0
			}
			if due >= total {
				break
			}
			z, x := feed.next()
			s.due, s.zs, s.truth = append(s.due, due), append(s.zs, z), append(s.truth, x)
		}
	}
}

// frameMoveEvery paces the session moves that run beside the sensors.
const frameMoveEvery = 250 * time.Millisecond

// frameWindow is what one open-loop window measured.
type frameWindow struct {
	steps, failed int
	fromDue, call sample // latency from the due time; the StepCtx call alone
	lag           sample // how late the generator sent
	moves         sample // Checkpoint plus Restore
	moveFailed    int
	diverged      int // moved sessions that answered unlike their source
	wall          time.Duration
}

// drive sends every frame due before until (an offset from t0), one
// goroutine per sensor. A sensor sends a frame at its due time, or as
// soon as its previous frame is answered if that is later. With move
// set, the mover session is moved every frameMoveEvery meanwhile.
func (fs *frameServer) drive(t0 time.Time, until time.Duration, move bool, tr *telemetry.Tracer) frameWindow {
	var mu sync.Mutex
	var w frameWindow
	var wg sync.WaitGroup
	start := time.Now()
	stop := make(chan struct{})
	moved := make(chan struct{})
	go func() {
		defer close(moved)
		if move {
			fs.moveLoop(&w, stop)
		}
	}()
	for _, s := range fs.sessions {
		wg.Add(1)
		go func(s *frameSession) {
			defer wg.Done()
			var fromDue, call, lag sample
			failed := 0
			prevDone := time.Time{}
			for ; s.next < len(s.due) && s.due[s.next] < until; s.next++ {
				due := t0.Add(s.due[s.next])
				time.Sleep(time.Until(due))
				sent := time.Now()
				ready := due
				if prevDone.After(ready) {
					ready = prevDone
				}
				lag.add(sent.Sub(ready))
				z := s.zs[s.next]
				res, err := fs.srv.StepCtx(context.Background(), s.id, nil, z)
				done := time.Now()
				prevDone = done
				if err != nil {
					failed++
					continue
				}
				fromDue.addAt(done.Sub(due), done.Sub(t0))
				call.add(done.Sub(sent))
				s.log.record(z, res)
				d := res.State[0] - s.truth[s.next]
				s.sqErr += d * d
				if tr.Enabled() {
					tc := telemetry.TraceContext{Trace: telemetry.NewTraceID(), Span: telemetry.NewSpanID()}
					tr.Record(telemetry.Event{Name: "frame", Cat: "perfbench", TS: tr.Stamp(due), Dur: done.Sub(due),
						Trace: tc.Trace, Span: tc.Span})
					tr.Record(telemetry.Event{Name: "serve.step", Cat: "perfbench", TS: tr.Stamp(sent), Dur: done.Sub(sent),
						Trace: tc.Trace, Span: telemetry.NewSpanID(), Parent: tc.Span})
				}
			}
			mu.Lock()
			w.steps += len(fromDue.v)
			w.failed += failed
			w.fromDue.v = append(w.fromDue.v, fromDue.v...)
			w.fromDue.at = append(w.fromDue.at, fromDue.at...)
			w.call.v = append(w.call.v, call.v...)
			w.lag.v = append(w.lag.v, lag.v...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	w.wall = time.Since(start)
	close(stop)
	<-moved
	return w
}

// moveLoop moves the mover session every frameMoveEvery until stop
// closes: Checkpoint, then Restore as a new session. Source and copy
// then step the same measurement and must answer alike, and the source
// is closed. The mover has no step in flight, so a move's time is the
// checkpoint and restore alone, under the sensors' load. moveLoop owns
// w's move fields until it returns.
func (fs *frameServer) moveLoop(w *frameWindow, stop <-chan struct{}) {
	tick := time.NewTicker(frameMoveEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-stop:
			return
		}
		t0 := time.Now()
		cp, err := fs.srv.Checkpoint(fs.mover)
		if err != nil {
			w.moveFailed++
			continue
		}
		id, err := fs.srv.Restore(cp)
		if err != nil {
			w.moveFailed++
			continue
		}
		w.moves.add(time.Since(t0))
		z, _ := fs.feed.next()
		a, errA := fs.srv.Step(fs.mover, nil, z)
		b, errB := fs.srv.Step(id, nil, z)
		switch {
		case errA != nil || errB != nil:
			w.moveFailed++
		case !sameEstimate(a.State, a.LogWeight, b.State, b.LogWeight):
			w.diverged++
		}
		if err := fs.srv.Close(fs.mover); err != nil {
			w.moveFailed++
		}
		fs.mover = id
	}
}

// runServeFrames is the open-loop serving workload: independent sensors
// against one in-process server, no HTTP.
func runServeFrames(cfg runConfig) (*report, error) {
	rep := newReport()
	setups := frameSetups
	if cfg.trace {
		setups = 1
	}
	var setup []float64
	var fs *frameServer
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := newFrameServer(cfg.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if fs != nil {
			fs.srv.Shutdown()
		}
		fs = s
	}
	defer fs.srv.Shutdown()
	// One warm-up second before the measured window, then the window.
	warm := time.Second
	fs.schedule(cfg.seed, warm+cfg.seconds)
	t0 := time.Now()
	fs.drive(t0, warm, false, nil)
	// Only steps after warm-up count toward the oracle's error sum.
	for _, s := range fs.sessions {
		s.sqErr = 0
	}

	if cfg.trace {
		return traceServeFrames(cfg, fs, t0, warm, rep)
	}
	w := openWindow()
	win := fs.drive(t0, warm+cfg.seconds, true, nil)
	cost := w.close()
	win.count(rep)
	rep.set("setup_s", median(setup), len(setup))
	setSteps(rep, &win.fromDue, warm, cfg.seconds)
	rep.set("cpu_us_per_step", float64(cost.cpu.Microseconds())/float64(win.steps), win.steps)
	rep.set("rmse_m", fs.rmse(warm), win.steps)
	rep.set("migrate_p50_ms", win.moves.q(0.5), len(win.moves.v))
	fs.oracle(rep, cfg.seed, nil)
	return rep, nil
}

// count adds the window's operations, steps and moves, to rep, and its
// moved sessions that diverged to rep's mismatches.
func (w *frameWindow) count(rep *report) {
	rep.attempted += int64(w.steps + w.failed + len(w.moves.v) + w.moveFailed)
	rep.failed += int64(w.failed + w.moveFailed)
	if w.diverged > 0 {
		rep.mismatch("%d moved sessions answered unlike their source", w.diverged)
	}
}

// rmse is the tracking error over every answered frame due at or after
// from.
func (fs *frameServer) rmse(from time.Duration) float64 {
	sq, n := 0.0, 0
	for _, s := range fs.sessions {
		sq += s.sqErr
		for _, d := range s.due[:s.next] {
			if d >= from {
				n++
			}
		}
	}
	return math.Sqrt(sq / float64(n))
}

// oracle replays a seed-chosen sample of sessions on standalone filters.
func (fs *frameServer) oracle(rep *report, seed uint64, tr *telemetry.Tracer) {
	idx := make([]int, frameSessions)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return mix64(seed+uint64(idx[a])) < mix64(seed+uint64(idx[b])) })
	for _, i := range idx[:frameOracles] {
		if err := replay(&fs.sessions[i].log, tr); err != nil {
			rep.mismatch("serve-frames session %d: %v", i, err)
		}
	}
}

// traceServeFrames is the traced run: half the window untraced, half
// traced, then the oracle replays with kernel spans.
func traceServeFrames(cfg runConfig, fs *frameServer, t0 time.Time, warm time.Duration, rep *report) (*report, error) {
	half := cfg.seconds / 2
	a := fs.drive(t0, warm+half, true, nil)

	tr := newTracer()
	before := fs.srv.Stats()
	dw := openDeviceWindow(fs.srv.Device())
	w := openWindow()
	b := fs.drive(t0, warm+cfg.seconds, true, tr)
	cost := w.close()
	dw.close(rep, b.wall, b.steps)
	after := fs.srv.Stats()
	fs.oracle(rep, cfg.seed, tr)
	spans, err := finishTrace(cfg, tr, "serve-frames")
	if err != nil {
		return nil, err
	}

	a.count(rep)
	b.count(rep)
	steps := float64(b.steps)
	batches := after.Batches - before.Batches
	execMS := ratio(float64(after.Device.TotalElapsed-before.Device.TotalElapsed)/1e6, float64(batches))
	rep.set("runtime.allocs_per_step", float64(cost.mallocs)/steps, b.steps)
	rep.set("runtime.gc_pause_ms", float64(cost.gcPause)/1e6, b.steps)
	rep.set("serve.step_ms", b.call.mean(), b.steps)
	rep.set("serve.mean_batch", ratio(float64(after.BatchedSteps-before.BatchedSteps), float64(batches)), int(batches))
	rep.set("serve.exec_ms_per_batch", execMS, int(batches))
	rep.set("serve.wait_ms", b.call.mean()-execMS, b.steps)
	rep.set("serve.rejected", float64(after.Rejected-before.Rejected), b.steps)
	rep.set("loadgen.lag_p99_ms", b.lag.q(0.99), b.steps)
	setKernelMetrics(rep, spans)
	rep.set("trace.slowdown_x", ratio(float64(a.steps)/a.wall.Seconds(), steps/b.wall.Seconds()), a.steps+b.steps)
	return rep, nil
}
