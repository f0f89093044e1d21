package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"esthera"
	"esthera/internal/device"
	"esthera/internal/serve"
	"esthera/internal/shard"
	"esthera/internal/telemetry"
)

// fleet-http shape: a router and two replicas in one process, eight
// default 16×64 UNGM sessions, nproc closed-loop HTTP clients and one
// live migration every fleetMigrateEvery.
const (
	fleetReplicas     = 2
	fleetSessions     = 8
	fleetSetups       = 5
	fleetMigrateEvery = 250 * time.Millisecond
	// fleetWarmSteps is how many steps each session takes before the
	// measured window; rmse_m covers them, so that it does not depend on
	// how fast the run went.
	fleetWarmSteps = 800
)

// hops records the fleet's hop spans and HTTP status counts while a
// tracer is installed. It is shared by every wrapper of one fleet.
type hops struct {
	tr        atomic.Pointer[telemetry.Tracer]
	migration atomic.Pointer[telemetry.TraceContext] // the migration in progress
	responses atomic.Int64
	retries   atomic.Int64 // 429 and 503 responses
	cpBytes   atomic.Int64
	cpCount   atomic.Int64
}

// span records a finished hop span under the trace of tc.
func (h *hops) span(name string, tc telemetry.TraceContext, start, end time.Time) {
	tr := h.tr.Load()
	if !tr.Enabled() {
		return
	}
	if !tc.Valid() {
		tc.Trace = telemetry.NewTraceID()
	}
	tr.Record(telemetry.Event{Name: name, Cat: "perfbench", TS: tr.Stamp(start), Dur: end.Sub(start),
		Trace: tc.Trace, Span: telemetry.NewSpanID()})
}

// timingTransport counts responses by status and, for step requests,
// records a span named span from the request until its body is closed.
type timingTransport struct {
	base http.RoundTripper
	h    *hops
	span string // "" records no span
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.h.responses.Add(1)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		t.h.retries.Add(1)
	}
	if t.span != "" && t.h.tr.Load().Enabled() && strings.HasSuffix(req.URL.Path, "/step") {
		tc, _ := telemetry.ParseTraceParent(req.Header.Get(telemetry.TraceHeader))
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.h.span(t.span, tc, start, time.Now()) }}
	}
	return resp, nil
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timeHandler wraps a replica's HTTP handler with a serve.handler span
// per step request.
func timeHandler(h *hops, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if h.tr.Load().Enabled() && strings.HasSuffix(r.URL.Path, "/step") {
			tc, _ := telemetry.ParseTraceParent(r.Header.Get(telemetry.TraceHeader))
			h.span("serve.handler", tc, start, time.Now())
		}
	})
}

// timeFrames wraps a replica's shard transport handler with one span
// per frame, named by frame type.
func timeFrames(h *hops, next shard.Handler) shard.Handler {
	return shard.HandlerFunc(func(remote string, t shard.FrameType, payload []byte) (shard.FrameType, []byte, error) {
		start := time.Now()
		rt, out, err := next.HandleFrame(remote, t, payload)
		end := time.Now()
		var tc telemetry.TraceContext
		if m := h.migration.Load(); m != nil {
			tc = *m
		}
		switch t {
		case shard.FramePing:
			h.span("shard.ping", telemetry.TraceContext{}, start, end)
		case shard.FrameExport:
			h.span("shard.export", tc, start, end)
			if h.tr.Load().Enabled() {
				h.cpBytes.Add(int64(len(out)))
				h.cpCount.Add(1)
			}
		case shard.FrameRestore:
			h.span("shard.restore", tc, start, end)
		}
		return rt, out, err
	})
}

// replica is one in-process esthera-serve: server, HTTP front end and
// shard transport endpoint.
type replica struct {
	srv  *esthera.Server
	web  *http.Server
	tl   *shard.Listener
	spec shard.ShardSpec
	done chan struct{}
}

// serveHTTP serves h on a fresh loopback port until srv is closed; the
// returned channel closes once Serve has returned.
func serveHTTP(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return srv, "http://" + ln.Addr().String(), done, nil
}

func startReplica(h *hops, name string) (*replica, error) {
	srv := esthera.NewServer(esthera.ServerConfig{Name: name})
	web, url, done, err := serveHTTP(timeHandler(h, esthera.NewServerHandler(srv)))
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	tl := shard.NewListener(name, timeFrames(h, shard.NewAgent(name, srv)))
	if err := tl.ListenAndServe("127.0.0.1:0"); err != nil {
		web.Close()
		<-done
		srv.Shutdown()
		return nil, err
	}
	return &replica{srv: srv, web: web, tl: tl, done: done,
		spec: shard.ShardSpec{Name: name, BaseURL: url, TransportAddr: tl.Addr().String()}}, nil
}

func (r *replica) stop() {
	r.web.Close()
	<-r.done
	r.tl.Close()
	r.srv.Shutdown()
}

// fleetSession is one session and what it sent and received.
type fleetSession struct {
	id       string
	feed     *ungmFeed
	log      sessionLog
	sqErr    float64
	migrated bool
}

// fleet is one set-up: replicas, router, its HTTP front end, and the
// clients' HTTP transport.
type fleet struct {
	h        *hops
	replicas []*replica
	router   *shard.Router
	front    *http.Server
	frontEnd chan struct{}
	url      string
	fwd      *http.Transport
	clients  *http.Transport
	client   *http.Client
	sessions []*fleetSession
	migrateN int
}

func startFleet(seed uint64) (*fleet, error) {
	fl := &fleet{h: &hops{}}
	var specs []shard.ShardSpec
	for i := 0; i < fleetReplicas; i++ {
		r, err := startReplica(fl.h, fmt.Sprintf("replica-%d", i))
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.replicas = append(fl.replicas, r)
		specs = append(specs, r.spec)
	}
	fl.fwd = http.DefaultTransport.(*http.Transport).Clone()
	router, err := shard.NewRouter(shard.RouterConfig{Shards: specs, Name: "router",
		HTTPClient: &http.Client{Transport: &timingTransport{base: fl.fwd, h: fl.h, span: "router.forward"}}})
	if err != nil {
		fl.stop()
		return nil, err
	}
	fl.router = router
	fl.front, fl.url, fl.frontEnd, err = serveHTTP(shard.NewRouterHandler(router))
	if err != nil {
		fl.stop()
		return nil, err
	}
	nproc := runtime.NumCPU()
	fl.clients = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	fl.client = &http.Client{Transport: &timingTransport{base: fl.clients, h: fl.h}}
	c := esthera.NewServerClient(esthera.ClientConfig{BaseURL: fl.url, HTTPClient: fl.client})
	for i := 0; i < fleetSessions; i++ {
		id, err := c.Create(context.Background(), esthera.FilterSpec{Model: "ungm", Seed: sessionSeed(seed, i)})
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.sessions = append(fl.sessions, &fleetSession{id: id, feed: newUNGMFeed(seed, i),
			log: sessionLog{seed: sessionSeed(seed, i)}})
	}
	return fl, nil
}

func (fl *fleet) stop() {
	if fl.front != nil {
		fl.front.Close()
		<-fl.frontEnd
	}
	if fl.router != nil {
		fl.router.Close()
	}
	for _, r := range fl.replicas {
		r.stop()
	}
	if fl.fwd != nil {
		fl.fwd.CloseIdleConnections()
	}
	if fl.clients != nil {
		fl.clients.CloseIdleConnections()
	}
}

func (fl *fleet) devices() []*device.Device {
	var out []*device.Device
	for _, r := range fl.replicas {
		out = append(out, r.srv.Device())
	}
	return out
}

// fleetWindow is what one closed-loop window measured.
type fleetWindow struct {
	steps, failed         int
	migrations, migFailed int
	lat, mig              sample
	wall                  time.Duration
}

// drive runs the closed loop for d and until every session has answered
// minSteps steps: nproc clients, each stepping its own sessions
// round-robin, while one migration runs every fleetMigrateEvery when
// migrate is set. tr, when set, records the client and migration spans.
func (fl *fleet) drive(d time.Duration, minSteps int, migrate bool, tr *telemetry.Tracer) fleetWindow {
	var mu sync.Mutex
	var w fleetWindow
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	nproc := runtime.NumCPU()
	for c := 0; c < nproc; c++ {
		var own []*fleetSession
		for i := c; i < len(fl.sessions); i += nproc {
			own = append(own, fl.sessions[i])
		}
		wg.Add(1)
		go func(own []*fleetSession) {
			defer wg.Done()
			client := esthera.NewServerClient(esthera.ClientConfig{BaseURL: fl.url, HTTPClient: fl.client})
			var lat sample
			failed := 0
			for n := 0; time.Now().Before(deadline) || len(own[n%len(own)].log.zs) < minSteps; n++ {
				s := own[n%len(own)]
				z, x := s.feed.next()
				sp, tc := begin(tr, "client.step", telemetry.TraceContext{})
				ctx := context.Background()
				if tc.Valid() {
					ctx = telemetry.ContextWithTrace(ctx, tc)
				}
				t0 := time.Now()
				res, err := client.Step(ctx, s.id, nil, z)
				d := time.Since(t0)
				sp.End()
				if err != nil {
					failed++
					continue
				}
				lat.addAt(d, time.Since(start))
				s.log.record(z, res)
				if len(s.log.zs) <= fleetWarmSteps {
					e := res.State[0] - x
					s.sqErr += e * e
				}
			}
			mu.Lock()
			w.steps += len(lat.v)
			w.failed += failed
			w.lat.v = append(w.lat.v, lat.v...)
			w.lat.at = append(w.lat.at, lat.at...)
			mu.Unlock()
		}(own)
	}
	if migrate {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(fleetMigrateEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
				case <-time.After(time.Until(deadline)):
					return
				}
				if !time.Now().Before(deadline) {
					return
				}
				dur, err := fl.migrateNext(tr)
				mu.Lock()
				w.migrations++
				if err != nil {
					w.migFailed++
				} else {
					w.mig.add(dur)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	return w
}

// migrateNext moves the next session, round-robin, to the other
// replica.
func (fl *fleet) migrateNext(tr *telemetry.Tracer) (time.Duration, error) {
	s := fl.sessions[fl.migrateN%len(fl.sessions)]
	fl.migrateN++
	from, err := fl.router.ShardOf(s.id)
	if err != nil {
		return 0, err
	}
	target := fl.replicas[0].spec.Name
	if from == target {
		target = fl.replicas[1].spec.Name
	}
	sp, tc := begin(tr, "router.migrate", telemetry.TraceContext{})
	ctx := context.Background()
	if tc.Valid() {
		ctx = telemetry.ContextWithTrace(ctx, tc)
		fl.h.migration.Store(&tc)
	}
	t0 := time.Now()
	err = fl.router.Migrate(ctx, s.id, target)
	dur := time.Since(t0)
	fl.h.migration.Store(nil)
	sp.End()
	if err == nil {
		s.migrated = true
	}
	return dur, err
}

// rmse is the tracking error over each session's first fleetWarmSteps
// answered steps.
func (fl *fleet) rmse() float64 {
	sq := 0.0
	for _, s := range fl.sessions {
		sq += s.sqErr
	}
	return math.Sqrt(sq / float64(fleetWarmSteps*len(fl.sessions)))
}

// fleetTracedReplays is how many sessions the traced run's oracle
// replays with kernel spans; the rest replay untraced, once.
const fleetTracedReplays = 1

// oracle replays every session that migrated on a standalone filter.
// Untraced replays run on nproc goroutines; traced ones run alone, so
// that their kernel spans time an otherwise idle process.
func (fl *fleet) oracle(rep *report, tr *telemetry.Tracer) {
	errs := make([]error, len(fl.sessions))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, s := range fl.sessions {
		if !s.migrated {
			continue
		}
		if tr != nil && i < fleetTracedReplays {
			errs[i] = replay(&s.log, tr)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s *fleetSession) {
			defer wg.Done()
			errs[i] = replay(&s.log, nil)
			<-sem
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			rep.mismatch("fleet-http session %d: %v", i, err)
		}
	}
}

// runFleetHTTP is the sharded serving workload: HTTP codec, router hop,
// shard transport and checkpoint export/restore beside steps.
func runFleetHTTP(cfg runConfig) (*report, error) {
	rep := newReport()
	setups := fleetSetups
	if cfg.trace {
		setups = 1
	}
	var setup []float64
	var fl *fleet
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		f, err := startFleet(cfg.seed)
		if err != nil {
			if fl != nil {
				fl.stop()
			}
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if fl != nil {
			fl.stop()
		}
		fl = f
	}
	defer fl.stop()
	fl.drive(0, fleetWarmSteps, false, nil) // warm-up

	if cfg.trace {
		return traceFleetHTTP(cfg, fl, rep)
	}
	w := openWindow()
	win := fl.drive(cfg.seconds, 0, true, nil)
	cost := w.close()
	rep.attempted = int64(win.steps + win.failed + win.migrations)
	rep.failed = int64(win.failed + win.migFailed)
	rep.set("setup_s", median(setup), len(setup))
	setSteps(rep, &win.lat, 0, win.wall)
	rep.set("cpu_us_per_step", float64(cost.cpu.Microseconds())/float64(win.steps), win.steps)
	rep.set("rmse_m", fl.rmse(), fleetWarmSteps*len(fl.sessions))
	rep.set("migrate_p50_ms", win.mig.q(0.5), len(win.mig.v))
	if len(win.mig.v) == 0 {
		return nil, errors.New("no migration completed in the measured window")
	}
	fl.oracle(rep, nil)
	return rep, nil
}

// traceFleetHTTP is the traced run: half the window untraced, half
// traced, then the oracle replays with kernel spans.
func traceFleetHTTP(cfg runConfig, fl *fleet, rep *report) (*report, error) {
	half := cfg.seconds / 2
	a := fl.drive(half, 0, true, nil)

	tr := newTracer()
	fl.h.tr.Store(tr)
	resp0, retry0 := fl.h.responses.Load(), fl.h.retries.Load()
	before := serverTotals(fl)
	dw := openDeviceWindow(fl.devices()...)
	w := openWindow()
	b := fl.drive(half, 0, true, tr)
	cost := w.close()
	dw.close(rep, b.wall, b.steps)
	after := serverTotals(fl)
	fl.h.tr.Store(nil)
	fl.oracle(rep, tr)
	spans, err := finishTrace(cfg, tr, "fleet-http")
	if err != nil {
		return nil, err
	}

	rep.attempted = int64(a.steps + a.failed + a.migrations + b.steps + b.failed + b.migrations)
	rep.failed = int64(a.failed + a.migFailed + b.failed + b.migFailed)
	steps := float64(b.steps)
	batches := after.Batches - before.Batches
	execMS := ratio(float64(after.Device.TotalElapsed-before.Device.TotalElapsed)/1e6, float64(batches))
	mean := func(name string) (float64, int) {
		if s := spans[name]; s != nil {
			return s.meanMS(), s.count
		}
		return 0, 0
	}
	rep.set("runtime.allocs_per_step", float64(cost.mallocs)/steps, b.steps)
	rep.set("runtime.gc_pause_ms", float64(cost.gcPause)/1e6, b.steps)
	handler, n := mean("serve.handler")
	rep.set("serve.handler_ms", handler, n)
	rep.set("serve.mean_batch", ratio(float64(after.BatchedSteps-before.BatchedSteps), float64(batches)), int(batches))
	rep.set("serve.exec_ms_per_batch", execMS, int(batches))
	rep.set("serve.wait_ms", handler-execMS, n)
	rep.set("serve.rejected", float64(after.Rejected-before.Rejected), b.steps)
	for _, name := range []string{"client.step", "router.forward", "shard.export", "shard.restore", "shard.ping"} {
		v, n := mean(name)
		rep.set(name+"_ms", v, n)
	}
	if s := spans["client.step"]; s != nil {
		rep.set("router.self_ms", s.selfMeanMS(), s.count)
	}
	resp := fl.h.responses.Load() - resp0
	rep.set("http.retry_ratio", ratio(float64(fl.h.retries.Load()-retry0), float64(resp)), int(resp))
	rep.set("shard.checkpoint_bytes", ratio(float64(fl.h.cpBytes.Load()), float64(fl.h.cpCount.Load())), int(fl.h.cpCount.Load()))
	setKernelMetrics(rep, spans)
	rep.set("trace.slowdown_x", ratio(float64(a.steps)/a.wall.Seconds(), steps/b.wall.Seconds()), a.steps+b.steps)
	return rep, nil
}

// serverTotals sums the replicas' serve counters.
func serverTotals(fl *fleet) serve.Stats {
	var t serve.Stats
	for _, r := range fl.replicas {
		st := r.srv.Stats()
		t.Batches += st.Batches
		t.BatchedSteps += st.BatchedSteps
		t.Rejected += st.Rejected
		t.Device.TotalElapsed += st.Device.TotalElapsed
	}
	return t
}
