package main

// metricDef names one reported metric. The catalogue below is the
// contract with BENCHMARK.json: every end-to-end metric is printed by
// every untraced run and every per-layer metric by every traced run,
// under exactly these names and units (the tests check the two agree).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. An "op" is the
// workload's unit of work: one study regenerated from scratch or from
// the cache (suite_*), or one POST /v1/compare (compare_*). Both times
// are host-normalized (see host.go): scaled to a host on which the host
// probe reads refProbeMS.
var endToEnd = []metricDef{
	{"op_norm_ms", "ms"}, // median over the window's segments of their mean op latency
	{"alloc_mb", "MB"},   // median over the segments of the process's heap allocation per op
	{"setup_s", "s"},     // median of the workload's repeated set-up step
}

// perLayer are the traced run's metrics, one group per layer of the
// pipeline, taken from outside the program: spans around calls into each
// layer's public functions plus the obs flight recorder the study
// already emits. Time and count metrics are per op for the suite_*
// workloads and per pass of the 104-key compare space for compare_*; a
// layer that does no work in a workload reports 0.
var perLayer = []metricDef{
	{"spec.build_ms", "ms"},
	{"guest.content_hash_ms", "ms"},

	{"dbt.driver_s", "s"},
	{"dbt.guest_blocks", "count"},
	{"dbt.guest_blocks_per_s", "1/s"},
	{"dbt.ladder_s", "s"},
	{"dbt.context_blocks", "count"},
	{"dbt.replay_ns_per_context_block", "ns"},
	{"dbt.followers_1_s", "s"},
	{"dbt.followers_4_s", "s"},
	{"dbt.followers_16_s", "s"},
	{"dbt.fast_dispatch_frac", "frac"},
	{"dbt.cache_lookups_per_mblock", "1/Mblock"},
	{"perfmodel.charge_s", "s"},

	{"dbt.sampled_followers_s", "s"},
	{"predict.observe_s", "s"},
	{"predict.branches", "count"},
	{"learned.extract_ms", "ms"},
	{"learned.collect_s", "s"},
	{"learned.crossval_ms", "ms"},

	{"navep.normalize_ms", "ms"},
	{"navep.calls", "count"},
	{"metrics.summary_ms", "ms"},

	{"core.unit_build_s", "s"},
	{"core.unit_ref_s", "s"},
	{"core.unit_train_s", "s"},
	{"core.unit_compare_s", "s"},
	{"core.worker_occupancy", "frac"},

	{"resultcache.lookup_p50_us", "us"},
	{"resultcache.put_p50_us", "us"},
	{"resultcache.hit_frac", "frac"},
	{"resultcache.entries", "count"},
	{"resultcache.bytes", "bytes"},

	{"study.figures_ms", "ms"},
	{"study.render_ms", "ms"},

	{"serve.cold_p90_ms", "ms"},
	{"serve.warm_p99_idle_ms", "ms"},
	{"serve.coalesced_frac", "frac"},
	{"serve.overload_frac", "frac"},

	{"obs.trace_overhead_frac", "frac"},
	{"host.calib_ms", "ms"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the record the set mode and
// other callers parse.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
