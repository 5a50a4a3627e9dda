package main

// metricDef names one reported metric and its unit; the lists match
// BENCHMARK.json (checked by TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_qps", "1/s"},
	{"extend_p50_ms", "ms"},
	{"server_rss_mib", "MiB"},
}

// perLayer are measured by the traced in-process run. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"ttserve.request_us_p50", "us"},
	{"ttserve.request_us_p99", "us"},
	{"ttserve.self_us_p50", "us"},
	{"ttserve.response_bytes", "bytes"},
	{"sharded.query_us_p50", "us"},
	{"sharded.query_us_p99", "us"},
	{"sharded.gather_us_p50", "us"},
	{"sharded.dispatches_per_query", "count"},
	{"sharded.hedges_per_query", "count"},
	{"sharded.extend_ms_p50", "ms"},
	{"query.trip_us_p50", "us"},
	{"query.trip_us_p99", "us"},
	{"query.self_us_p50", "us"},
	{"query.index_scans_per_query", "count"},
	{"query.estimator_skips_per_query", "count"},
	{"query.useful_scan_ratio", "ratio"},
	{"query.subcache_hit_ratio", "ratio"},
	{"query.fullcache_hit_ratio", "ratio"},
	{"query.allocs_per_query", "count"},
	{"query.alloc_bytes_per_query", "bytes"},
	{"fmindex.search_us_p50", "us"},
	{"fmindex.searches_per_query", "count"},
	{"temporal.scan_us_p50", "us"},
	{"temporal.candidates_per_sample", "ratio"},
	{"hist.build_us_p50", "us"},
	{"hist.convolve_us_p50", "us"},
	{"hist.convolutions_per_query", "count"},
	{"wal.append_ms_p50", "ms"},
	{"wal.fsync_ms_per_append", "ms"},
	{"wal.group_commits", "count"},
	{"snt.build_s", "s"},
	{"snt.extend_ms_p50", "ms"},
	{"snt.compact_ms", "ms"},
	{"snt.partitions_max", "count"},
	{"snapio.load_mapped_ms", "ms"},
	{"snapio.load_copy_ms", "ms"},
	{"snapio.write_ms", "ms"},
	{"traj.decode_ms_per_batch", "ms"},
	{"trace.overhead_frac", "ratio"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()
