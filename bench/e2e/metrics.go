package main

// metricDef names one metric, its unit and which direction is better.
// Bound, on end-to-end metrics only, is the share of the baseline's median
// by which the metric may get worse before -compare calls it a regression.
// BENCHMARK.json carries the same tables; metrics_test.go keeps them equal.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// step_fail_ratio (failed steps / attempted) is reported with every result
// as "failed"/"attempted" instead of as a metric: it is 0 on a healthy run
// and a bound relative to 0 means nothing. Any failed step fails the run.
var e2eMetrics = []metricDef{
	{"tokens_per_s", "tokens/s", "higher", 0.10},
	{"step_ms_p50", "ms", "lower", 0.10},
	{"step_ms_p75", "ms", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// layerMetricDefs lists every per-layer metric in the order it is printed:
// first the ones the traced pass yields, then the probes.
var layerMetricDefs = []metricDef{
	{Name: "engine.step_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "model.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "model.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul_calls", Unit: "count", Better: "lower"},
	{Name: "tensor.elementwise_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.parrange_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.codec_ms", Unit: "ms", Better: "lower"},
	{Name: "optim.adam_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.fwd_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.bwd_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.tail_other_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.gathers_per_step", Unit: "count", Better: "lower"},
	{Name: "engine.ondemand_gathers_per_step", Unit: "count", Better: "lower"},
	{Name: "engine.max_live_param_mb", Unit: "MB", Better: "lower"},
	{Name: "overlap.prefetch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "overlap.async_reduces_per_step", Unit: "count", Better: "higher"},
	{Name: "overlap.exposed_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "comm.ops_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "comm.busy_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "comm.allgather_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "comm.reducescatter_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "comm.allreduce_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "nvme.read_mb_per_step", Unit: "MB", Better: "lower"},
	{Name: "nvme.write_mb_per_step", Unit: "MB", Better: "lower"},
	{Name: "mem.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "mem.first_step_allocs", Unit: "count", Better: "lower"},
	{Name: "mem.pinned_mb", Unit: "MB", Better: "lower"},
	{Name: "mem.pinned_acquires_per_step", Unit: "count", Better: "lower"},

	{Name: "tensor.probe.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.probe.encode_half_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.probe.decode_half_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "optim.probe.adam_melem_per_s", Unit: "Melem/s", Better: "higher"},
	{Name: "comm.probe.mem.allgather_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.probe.mem.reducescatter_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.probe.mem.allreduce_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.probe.mem.scalar_us", Unit: "us", Better: "lower"},
	{Name: "comm.probe.sock.allgather_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.probe.sock.reducescatter_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.probe.sock.allreduce_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.probe.sock.scalar_us", Unit: "us", Better: "lower"},
	{Name: "nvme.probe.file.read_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "nvme.probe.file.write_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "nvme.probe.mem.read_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "nvme.probe.mem.write_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "ckpt.probe.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.probe.stage_gbps", Unit: "GB/s", Better: "higher"},
}
