// Command perfbench is Esthera's end-to-end benchmark. It runs one named
// workload against the public API for a fixed time, checks the outputs
// against an oracle, and prints every metric by name and unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a user sees; with
// -trace 1 the run is traced from the benchmark's own files and the
// metrics are the per-layer breakdown (see metrics.go for which
// end-to-end metric each should move). Build and run it from the
// repository root with
//
//	bash perfbench/run.sh --workload track-arm --seed 1 --seconds 10 --trace 0
//
// The workloads (BENCHMARK.json records why each was chosen):
//
//   - track-arm: the paper's robotic-arm tracker, one filter in a closed
//     loop (arm.go);
//   - serve-frames: 64 sensor sessions in an open loop against an
//     in-process server (frames.go);
//   - fleet-http: a router and two replicas over loopback HTTP and the
//     shard transport, with live migration (fleet.go).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	out     io.Writer // human-readable progress and tables
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int64
	// mismatches lists every oracle failure; any makes the run incorrect.
	mismatches []string
	metrics    map[string]float64
	// samples is each metric's sample count, printed in the table.
	samples map[string]int
	// info are printed lines that are not metrics of BENCHMARK.json.
	info []string
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), samples: make(map[string]int)}
}

func (r *report) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// setSteps reports the steps of a measured window that began at from
// and lasted span. The throughput is a metric: the median over
// sub-windows of the completed steps per second. The latency's median,
// p90, p99 and highest percentile with at least ten samples beyond it
// are printed lines. On a shared 2-vCPU host they spread 25-80% from
// run to run, too wide for a regression bound, so they are not metrics.
func setSteps(rep *report, s *sample, from, span time.Duration) {
	rep.set("steps_per_s", s.windowed(from, span), len(s.v))
	sorted := s.sorted()
	qs := []float64{0.5, 0.9, 0.99}
	if q := highestTail(len(sorted)); q > 0.99 {
		qs = append(qs, q)
	}
	for _, q := range qs {
		rep.info = append(rep.info, fmt.Sprintf("%-28s %14.6g %-6s %8d  printed only: too noisy to bound",
			fmt.Sprintf("step_p%g_ms", 100*q), quantile(sorted, q), "ms", len(sorted)))
	}
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"track-arm":    runTrackArm,
	"serve-frames": runServeFrames,
	"fleet-http":   runFleetHTTP,
}

// commit is the measured commit, stamped by run.sh when the checkout is
// a git repository.
var commit = "unknown"

// traceDir is where traced runs leave their span files, inside the
// checkout's build directory.
const traceDir = ".bench_build/traces"

func main() {
	workload := flag.String("workload", "", "workload to run: track-arm, serve-frames or fleet-http")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 traces the run and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (track-arm, serve-frames, fleet-http), -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: os.Stdout}
	meta := runMeta(*workload, cfg)
	b, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", b)

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs, measured := endToEnd, true
	if cfg.trace {
		defs, measured = perLayer, false
	}
	if err := emit(os.Stdout, rep, defs, measured); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: %s: oracle mismatch: %s\n", *workload, m)
	}
}

// emit prints the metric table and, as the last line, the result
// object. With measured set every metric must have been measured;
// otherwise (per-layer metrics) a layer the workload's path never
// reaches reads 0.
func emit(w io.Writer, rep *report, defs []metricDef, measured bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	fmt.Fprintf(w, "%-28s %14s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "should move")
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && measured {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %-6s %8d  %s\n", d.name, v, d.unit, rep.samples[d.name], d.moves)
	}
	for _, line := range rep.info {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-28s %14.6g %-6s %8d  attempted and failed of the result\n", "fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.mismatches) == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runMeta records what the run measured on: the build, the host and the
// workload's arguments.
func runMeta(workload string, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":       workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds.Seconds(),
		"trace":          cfg.trace,
		"commit":         commit,
		"source_sha256":  sourceHash("."),
		"go":             runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"unix_time_secs": time.Now().Unix(),
	}
}

// sourceHash fingerprints the Go sources under root, so a run from a
// checkout that is not a git repository still names the code it
// measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
