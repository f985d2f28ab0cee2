package main

// metricDef names one reported metric, its unit and which direction is
// better. The tables below are the benchmark's vocabulary; BENCHMARK.json
// lists the same names and units, and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees, reported with
// tracing off on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ack_p50_ms", "ms", "lower"},
	{"ack_p99_ms", "ms", "lower"},
	{"commit_p50_ms", "ms", "lower"},
	{"commit_p99_ms", "ms", "lower"},
	{"capacity_tps", "tx/s", "higher"},
	{"replay_tps", "tx/s", "higher"},
	{"speedup_cost", "x", "higher"},
	{"recovery_s", "s", "lower"},
	{"heap_peak_mib", "MiB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0. The overhead.* entries are traced minus untraced,
// per end-to-end metric, measured in the same run.
var perLayer = append([]metricDef{
	{"client.rpc_p50_ms", "ms", "lower"},
	{"client.rpc_p99_ms", "ms", "lower"},
	{"client.http_requests_per_tx", "ratio", "lower"},
	{"client.self_s", "s", "lower"},

	{"mempool.admit_p99_ms", "ms", "lower"},
	{"mempool.depth_max", "count", "lower"},
	{"mempool.pack_calls", "count", "lower"},
	{"mempool.pack_busy_s", "s", "lower"},
	{"mempool.pack_p99_ms", "ms", "lower"},
	{"mempool.validate_busy_s", "s", "lower"},
	{"mempool.deferred", "count", "lower"},
	{"mempool.txs_per_block", "count", "higher"},
	{"mempool.block_fill_p50_ms", "ms", "lower"},
	{"mempool.self_s", "s", "lower"},

	{"wal.append_calls", "count", "lower"},
	{"wal.append_busy_s", "s", "lower"},
	{"wal.append_p50_ms", "ms", "lower"},
	{"wal.append_p99_ms", "ms", "lower"},
	{"wal.txs_per_sync", "ratio", "higher"},
	{"wal.bytes_per_tx", "B/tx", "lower"},
	{"wal.ckpt_written", "count", "higher"},
	{"wal.ckpt_skipped", "count", "lower"},
	{"wal.ckpt_busy_s", "s", "lower"},
	{"wal.ckpt_p99_ms", "ms", "lower"},
	{"wal.recover_open_s", "s", "lower"},
	{"wal.recover_s", "s", "lower"},
	{"wal.materialize_s", "s", "lower"},
	{"wal.replay_s", "s", "lower"},
	{"wal.replayed_blocks", "count", "lower"},
	{"wal.lazy_faults", "count", "lower"},
	{"wal.self_s", "s", "lower"},

	{"exec.block_p50_ms", "ms", "lower"},
	{"exec.block_p99_ms", "ms", "lower"},
	{"exec.conflicted", "count", "lower"},
	{"exec.cross_aborts", "count", "lower"},
	{"exec.abort_ratio", "ratio", "lower"},
	{"exec.merge_waves", "count", "lower"},
	{"exec.repairs", "count", "lower"},
	{"exec.fallback_blocks", "count", "lower"},
	{"exec.speedup_cost", "x", "higher"},
	{"exec.self_s", "s", "lower"},
	{"exec.evicted", "count", "lower"},
	{"exec.cold_reads", "count", "lower"},
	{"exec.ram_replay_tps", "tx/s", "higher"},

	{"basestore.get_calls", "count", "lower"},
	{"basestore.get_hits", "count", "lower"},
	{"basestore.hit_ratio", "ratio", "higher"},
	{"basestore.get_busy_s", "s", "lower"},
	{"basestore.miss_busy_s", "s", "lower"},
	{"basestore.get_hit_p99_us", "us", "lower"},
	{"basestore.apply_calls", "count", "lower"},
	{"basestore.apply_entries", "count", "lower"},
	{"basestore.apply_busy_s", "s", "lower"},
	{"basestore.apply_p99_ms", "ms", "lower"},
	{"basestore.range_s", "s", "lower"},
	{"basestore.bytes_per_evicted", "B", "lower"},
	{"basestore.self_s", "s", "lower"},

	{"fs.fsyncs", "count", "lower"},
	{"fs.dir_syncs", "count", "lower"},
	{"fs.renames", "count", "lower"},
	{"fs.bytes_written", "B", "lower"},
	{"fs.sync_busy_s", "s", "lower"},
	{"fs.self_s", "s", "lower"},

	{"gen.lag_p99_ms", "ms", "lower"},
	{"gen.samples", "count", "higher"},
	{"proc.cpu_s", "s", "lower"},
	{"proc.gc_pause_s", "s", "lower"},
}, overheadDefs()...)

func overheadDefs() []metricDef {
	out := make([]metricDef, len(endToEnd))
	for i, d := range endToEnd {
		out[i] = metricDef{"overhead." + d.name, d.unit, d.better}
	}
	return out
}

// zeroLayers returns every traced-layer metric set to 0, so a layer a
// workload does not exercise still reports.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
