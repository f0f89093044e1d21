package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"esthera/internal/telemetry"
)

// newTracer returns the benchmark's own span recorder, enabled. Its
// rings are sized for a traced run's spans; finishTrace reports any a
// full ring overwrote. Untraced code paths pass a nil tracer, which
// records nothing and reads no clock.
func newTracer() *telemetry.Tracer {
	tr := telemetry.New(telemetry.Config{Shards: 4, ShardCap: 1 << 16})
	tr.SetProcess("perfbench")
	tr.SetEnabled(true)
	return tr
}

// begin opens a span of the benchmark under trace tc (a zero tc starts
// a new trace) and returns it with the context its children inherit.
func begin(tr *telemetry.Tracer, name string, tc telemetry.TraceContext) (telemetry.Span, telemetry.TraceContext) {
	if !tr.Enabled() {
		return telemetry.Span{}, tc
	}
	if !tc.Valid() {
		tc.Trace = telemetry.NewTraceID()
	}
	id := telemetry.NewSpanID()
	return tr.Begin("perfbench", name).WithTrace(tc.Trace, id, tc.Span),
		telemetry.TraceContext{Trace: tc.Trace, Span: id}
}

// spanStats aggregates every span of one name.
type spanStats struct {
	name        string
	count       int
	total, self time.Duration
}

func (s spanStats) meanMS() float64     { return ratio(float64(s.total)/1e6, float64(s.count)) }
func (s spanStats) selfMeanMS() float64 { return ratio(float64(s.self)/1e6, float64(s.count)) }

// selfTimes returns each span name's total and self time. A span's self
// time is its duration minus the part of its interval that its children
// cover. A child is a span naming it as Parent; a span without a Parent
// is the child of the innermost span of the same trace whose interval
// contains its start, since hops across goroutines and HTTP cannot
// carry the benchmark's span IDs.
func selfTimes(events []telemetry.Event) map[string]*spanStats {
	evs := append([]telemetry.Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Dur > evs[j].Dur
	})
	byID := make(map[uint64]int, len(evs))
	for i, ev := range evs {
		if ev.Span != 0 {
			byID[ev.Span] = i
		}
	}
	// Containment nesting, one stack per trace.
	stacks := make(map[telemetry.TraceID][]int)
	children := make(map[int][]int)
	for i, ev := range evs {
		if ev.Trace.IsZero() {
			continue
		}
		st := stacks[ev.Trace]
		for len(st) > 0 {
			top := evs[st[len(st)-1]]
			if ev.TS < top.TS+top.Dur {
				break
			}
			st = st[:len(st)-1]
		}
		if p, ok := byID[ev.Parent]; ok && ev.Parent != 0 {
			children[p] = append(children[p], i)
		} else if len(st) > 0 {
			children[st[len(st)-1]] = append(children[st[len(st)-1]], i)
		}
		stacks[ev.Trace] = append(st, i)
	}
	out := make(map[string]*spanStats)
	for i, ev := range evs {
		s := out[ev.Name]
		if s == nil {
			s = &spanStats{name: ev.Name}
			out[ev.Name] = s
		}
		s.count++
		s.total += ev.Dur
		s.self += ev.Dur - covered(ev, evs, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of the given
// children's intervals covers.
func covered(parent telemetry.Event, evs []telemetry.Event, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	end := parent.TS + parent.Dur
	for _, k := range kids {
		lo, hi := max(evs[k].TS, parent.TS), min(evs[k].TS+evs[k].Dur, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, reach time.Duration
	for _, v := range ivs {
		if v.lo < reach {
			v.lo = reach
		}
		if v.hi > v.lo {
			sum += v.hi - v.lo
			reach = v.hi
		}
	}
	return sum
}

// finishTrace drains tr, writes the spans to
// traceDir/trace-<workload>-<seed>.json in the repository's raw trace
// format (esthera-trace reads it), prints the self time of each span
// name and returns those statistics.
func finishTrace(cfg runConfig, tr *telemetry.Tracer, workload string) (map[string]*spanStats, error) {
	meta := telemetry.TraceMeta{Process: tr.Process(), EpochUnixNano: tr.EpochUnixNano(), Dropped: tr.Dropped()}
	events := tr.Drain()
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.json", workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := telemetry.EncodeTrace(f, meta, events); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	st := selfTimes(events)
	printSelfTimes(cfg.out, st)
	fmt.Fprintf(cfg.out, "%d spans written to %s (%d dropped)\n", len(events), path, meta.Dropped)
	return st, nil
}

// printSelfTimes writes the per-span-name table, slowest self time first.
func printSelfTimes(w io.Writer, st map[string]*spanStats) {
	rows := make([]*spanStats, 0, len(st))
	for _, s := range st {
		rows = append(rows, s)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "%-26s %8s %12s %12s %12s\n", "span", "count", "mean_ms", "self_ms", "self_total_s")
	for _, s := range rows {
		fmt.Fprintf(w, "%-26s %8d %12.4f %12.4f %12.3f\n", s.name, s.count, s.meanMS(), s.selfMeanMS(), s.self.Seconds())
	}
}
