package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"esthera/internal/telemetry"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{7}, 0.99, 7},
		{[]float64{0, 10}, 0.99, 9.9},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	var s sample
	for _, ms := range []int{5, 1, 4, 2, 3} {
		s.add(time.Duration(ms) * time.Millisecond)
	}
	if got := s.q(0.5); got != 3 {
		t.Errorf("median of unsorted sample = %v, want 3", got)
	}
}

func TestHighestTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	}
	for _, c := range cases {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func ev(name string, tc telemetry.TraceID, span, parent uint64, from, to int) telemetry.Event {
	return telemetry.Event{Name: name, Trace: tc, Span: span, Parent: parent,
		TS: time.Duration(from) * time.Millisecond, Dur: time.Duration(to-from) * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	a, b := telemetry.TraceID{1}, telemetry.TraceID{2}
	events := []telemetry.Event{
		// Trace a: children overlap each other and one runs past the
		// parent's end, so only [1,5] and [9,10] of the parent's [0,10]
		// are covered.
		ev("root", a, 1, 0, 0, 10),
		ev("child", a, 2, 1, 1, 3),
		ev("child", a, 3, 1, 2, 5),
		ev("child", a, 4, 1, 9, 12),
		// Trace b: no parent links, so nesting comes from containment;
		// the grandchild counts against mid only.
		ev("root", b, 5, 0, 20, 30),
		ev("mid", b, 6, 0, 21, 29),
		ev("leaf", b, 7, 0, 22, 24),
		// A span outside every other span of its trace is a root.
		ev("leaf", b, 8, 0, 40, 41),
	}
	st := selfTimes(events)
	want := map[string]struct {
		count       int
		total, self int
	}{
		"root":  {2, 20, 5 + 2},
		"child": {3, 2 + 3 + 3, 2 + 3 + 3},
		"mid":   {1, 8, 6},
		"leaf":  {2, 3, 3},
	}
	for name, w := range want {
		s := st[name]
		if s == nil {
			t.Fatalf("no stats for %s", name)
		}
		if s.count != w.count || s.total != time.Duration(w.total)*time.Millisecond || s.self != time.Duration(w.self)*time.Millisecond {
			t.Errorf("%s: count %d total %v self %v, want %d %dms %dms", name, s.count, s.total, s.self, w.count, w.total, w.self)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

// TestArmOracle checks that the unfused, traced path reproduces the
// fused first pass of an episode, and that a corrupted measurement
// does not.
func TestArmOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("steps three episodes of the 120×128 arm filter")
	}
	eps, err := newArmEpisodes(3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newArmFilter(3)
	if err != nil {
		t.Fatal(err)
	}
	defer closeArm(f)
	rep := newReport()
	var refs armRefs
	runArmPhase(f, nil, eps, 0, 1, &refs, nil, rep, "reference")
	runArmPhase(f, newTracer(), eps, 0, 1, &refs, nil, rep, "unfused")
	if len(rep.mismatches) != 0 {
		t.Fatalf("unfused path diverged from fused: %v", rep.mismatches)
	}
	bad := append([]float64(nil), eps[0].zs[armEpisode/2]...)
	bad[0] += 0.01
	eps[0].zs[armEpisode/2] = bad
	runArmPhase(f, nil, eps, 0, 1, &refs, nil, rep, "corrupted")
	if len(rep.mismatches) != 1 {
		t.Fatalf("corrupted measurement: %d mismatches, want 1: %v", len(rep.mismatches), rep.mismatches)
	}
}

// TestFramesOracle serves a short open loop, with sessions moved beside
// it, and checks that the oracles accept the served sessions and reject
// a corrupted answer.
func TestFramesOracle(t *testing.T) {
	fs, err := newFrameServer(5)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.srv.Shutdown()
	fs.schedule(5, 600*time.Millisecond)
	win := fs.drive(time.Now(), 600*time.Millisecond, true, nil)
	if win.failed != 0 || win.steps == 0 || win.moveFailed != 0 || len(win.moves.v) == 0 {
		t.Fatalf("%d steps, %d failed; %d moves, %d failed", win.steps, win.failed, len(win.moves.v), win.moveFailed)
	}
	rep := newReport()
	win.count(rep)
	fs.oracle(rep, 5, newTracer())
	if len(rep.mismatches) != 0 {
		t.Fatalf("oracle rejected correct sessions: %v", rep.mismatches)
	}
	for _, s := range fs.sessions {
		s.log.lws[len(s.log.lws)/2] ^= 1
	}
	fs.oracle(rep, 5, nil)
	if len(rep.mismatches) != frameOracles {
		t.Fatalf("corrupted answers: %d mismatches, want %d", len(rep.mismatches), frameOracles)
	}
}

// TestFleetOracle migrates sessions between replicas under load and
// checks that the oracle accepts them and rejects a corrupted record.
func TestFleetOracle(t *testing.T) {
	fl, err := startFleet(9)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.stop()
	win := fl.drive(600*time.Millisecond, 0, true, nil)
	if win.failed != 0 || win.migFailed != 0 || win.migrations == 0 {
		t.Fatalf("%d steps failed, %d of %d migrations failed", win.failed, win.migFailed, win.migrations)
	}
	rep := newReport()
	fl.oracle(rep, nil)
	if len(rep.mismatches) != 0 {
		t.Fatalf("oracle rejected migrated sessions: %v", rep.mismatches)
	}
	s := fl.sessions[0]
	if !s.migrated {
		t.Fatal("session 0 did not migrate")
	}
	s.log.zs[1], s.log.zs[2] = s.log.zs[2], s.log.zs[1]
	fl.oracle(rep, nil)
	if len(rep.mismatches) != 1 {
		t.Fatalf("swapped measurements: %d mismatches, want 1", len(rep.mismatches))
	}
}
