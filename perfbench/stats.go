package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between the two closest ranks (0 for an empty sample).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestTail returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, or 0 when not even the median does.
func highestTail(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// sample collects one timing series in milliseconds.
type sample struct {
	v  []float64
	at []float64 // seconds into the run when each was taken (addAt only)
}

// windowWidth is the width of the sub-windows over which a run reports
// the median throughput. A burst of interference from another tenant of
// the host that covers less than half of a run then stays out of its
// result.
const windowWidth = 2 * time.Second

// windowed splits the samples taken in [from, from+span) into whole
// windows of windowWidth and returns the median over the windows of the
// completion rate (1/s).
func (s *sample) windowed(from, span time.Duration) float64 {
	n := int(span / windowWidth)
	if n < 1 {
		n = 1
	}
	width := span.Seconds() / float64(n)
	counts := make([]float64, n)
	for _, at := range s.at {
		if w := int((at - from.Seconds()) / width); w >= 0 && w < n {
			counts[w]++
		}
	}
	for w := range counts {
		counts[w] /= width
	}
	return median(counts)
}

func (s *sample) add(d time.Duration) { s.v = append(s.v, float64(d)/1e6) }

func (s *sample) addAt(d, at time.Duration) {
	s.add(d)
	s.at = append(s.at, at.Seconds())
}

func (s *sample) sorted() []float64 {
	out := append([]float64(nil), s.v...)
	sort.Float64s(out)
	return out
}

func (s *sample) q(q float64) float64 { return quantile(s.sorted(), q) }

func (s *sample) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t / float64(len(s.v))
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is a measured interval's process-wide cost: wall time, CPU
// time, heap allocations and GC pause.
type window struct {
	start   time.Time
	cpu     time.Duration
	mallocs uint64
	pauseNs uint64
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{start: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// windowCost is what a window cost once closed.
type windowCost struct {
	wall, cpu time.Duration
	mallocs   uint64
	gcPause   time.Duration
}

func (w window) close() windowCost {
	wall := time.Since(w.start)
	cpu := cpuTime() - w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return windowCost{wall: wall, cpu: cpu, mallocs: ms.Mallocs - w.mallocs,
		gcPause: time.Duration(ms.PauseTotalNs - w.pauseNs)}
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
