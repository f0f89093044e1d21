package main

// metricDef is one metric of BENCHMARK.json. moves records, for a
// per-layer metric, which end-to-end metric on which workload it should
// move; BENCHMARK.json's fixed schema has no field for it.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them: each is measured on the workload's own path
// (see the workload files for what each means there).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "steps_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_us_per_step", unit: "us", better: "lower"},
	{name: "rmse_m", unit: "m", better: "lower"},
	{name: "migrate_p50_ms", unit: "ms", better: "lower"},
}

// perLayer are the traced run's metrics, named after the module that
// does the work. A workload whose path does not reach a layer reports 0
// for it: that layer did no work.
var perLayer = []metricDef{
	{"kernels.rand_ms", "ms", "lower", "steps_per_s, cpu_us_per_step on track-arm"},
	{"kernels.sample_ms", "ms", "lower", "steps_per_s, cpu_us_per_step on track-arm (dominant there)"},
	{"kernels.sort_ms", "ms", "lower", "the printed step_p50_ms, cpu_us_per_step on serve-frames"},
	{"kernels.estimate_ms", "ms", "lower", "steps_per_s on track-arm; the printed step_p50_ms on serve-frames"},
	{"kernels.exchange_ms", "ms", "lower", "steps_per_s on track-arm; the printed step_p50_ms on serve-frames"},
	{"kernels.resample_ms", "ms", "lower", "the printed step_p50_ms, cpu_us_per_step on serve-frames"},
	{"kernels.round_fused_ms", "ms", "lower", "steps_per_s on track-arm"},
	{"kernels.round_unfused_ms", "ms", "lower", "none directly: minus round_fused_ms it is the launch/barrier overhead fusion saves"},
	{"device.launches_per_step", "count", "lower", "cpu_us_per_step on serve-frames"},
	{"device.laneops_per_step", "count", "lower", "steps_per_s on track-arm"},
	{"device.global_bytes_per_step", "B", "lower", "steps_per_s on track-arm (computed bytes, not measured)"},
	{"device.busy_frac", "ratio", "higher", "steps_per_s on track-arm; cpu_us_per_step on serve-frames"},
	{"device.scaling_x", "ratio", "higher", "steps_per_s on track-arm"},
	{"runtime.allocs_per_step", "count", "lower", "the printed step latency tail on serve-frames and track-arm"},
	{"runtime.gc_pause_ms", "ms", "lower", "the printed step latency tail on serve-frames and track-arm"},
	{"serve.step_ms", "ms", "lower", "the printed step_p50_ms on serve-frames and fleet-http"},
	{"serve.mean_batch", "count", "higher", "cpu_us_per_step on serve-frames"},
	{"serve.exec_ms_per_batch", "ms", "lower", "the printed step_p50_ms, cpu_us_per_step on serve-frames"},
	{"serve.wait_ms", "ms", "lower", "the printed step_p50_ms on fleet-http (mostly waiting) and serve-frames"},
	{"serve.rejected", "count", "lower", "failed on serve-frames and fleet-http"},
	{"client.step_ms", "ms", "lower", "the printed step_p50_ms, steps_per_s on fleet-http only"},
	{"router.forward_ms", "ms", "lower", "the printed step_p50_ms, steps_per_s on fleet-http only"},
	{"serve.handler_ms", "ms", "lower", "the printed step_p50_ms, steps_per_s on fleet-http only"},
	{"router.self_ms", "ms", "lower", "the printed step_p50_ms, steps_per_s on fleet-http only"},
	{"http.retry_ratio", "ratio", "lower", "the printed step_p50_ms, steps_per_s on fleet-http only"},
	{"shard.export_ms", "ms", "lower", "migrate_p50_ms on fleet-http"},
	{"shard.restore_ms", "ms", "lower", "migrate_p50_ms on fleet-http"},
	{"shard.ping_ms", "ms", "lower", "migrate_p50_ms on fleet-http (probe traffic on the transport)"},
	{"shard.checkpoint_bytes", "B", "lower", "migrate_p50_ms on fleet-http"},
	{"loadgen.lag_p99_ms", "ms", "lower", "none: a validity signal for serve-frames latencies"},
	{"trace.slowdown_x", "ratio", "lower", "none: untraced over traced steps_per_s of the same run"},
}
