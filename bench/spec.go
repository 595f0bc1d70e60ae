package main

// This file is the benchmark's vocabulary: the workload, end-to-end metric
// and per-layer metric names that BENCHMARK.json declares and every later
// performance claim refers to. bench_test.go asserts the two lists agree.

// metricSpec names one metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics every workload emits from an untraced run. The
// driver's contract wants one set for all workloads, each value non-zero and
// steady across seeds, so the two products share rate-style names: the work
// unit behind work_per_s / cpu_us_per_work and the meaning of the two figures
// of merit are fixed per workload (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"cpu_us_per_work", "us"},
	{"peak_rss_mb", "MiB"},
	{"qos_figure", "ratio"},
	{"efficiency_figure", "ratio"},
}

// perLayer lists the metrics a traced run emits: the workload's own
// bench.* numbers plus the layer ledger, which is measured on fixed inputs
// and is therefore the same instrument whichever workload hosts it.
var perLayer = []metricSpec{
	{"bench.rep_wall_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.harness_self_frac", "ratio"},
	{"bench.gen_ns_per_op", "ns"},

	{"sim.run_serial_s", "s"},
	{"sim.run_auto_s", "s"},
	{"sim.speculation_ratio", "ratio"},
	{"sim.ns_per_kinstr", "ns"},
	{"sim.new_ms", "ms"},
	{"sim.checkpoint_us", "us"},
	{"sim.fork_run_ms", "ms"},
	{"sim.cold_restart_us", "us"},
	{"sim.calibrate_s", "s"},
	{"sim.trace_overhead_ratio", "ratio"},
	{"cache.zcache_access_ns", "ns"},
	{"cache.zcache_miss_ratio", "ratio"},
	{"cache.setassoc_access_ns", "ns"},
	{"cache.hierarchy_access_ns", "ns"},
	{"cache.hierarchy_filter_ratio", "ratio"},
	{"monitor.umon_access_ns", "ns"},
	{"monitor.misscurve_us", "us"},
	{"monitor.sampled_access_ns", "ns"},
	{"core.ubik_reconfigure_us", "us"},
	{"policy.ucp_reconfigure_us", "us"},
	{"workload.stream_next_ns", "ns"},
	{"workload.tracestream_next_ns", "ns"},
	{"experiment.sweep_cold_s", "s"},
	{"experiment.sweep_warm_s", "s"},
	{"experiment.warm_reuse_ratio", "ratio"},
	{"experiment.pool_results", "count"},
	{"experiment.pool_checkpoints", "count"},
	{"experiment.report_ms", "ms"},
	{"parallel.scaling", "ratio"},
	{"scenario.parse_us", "us"},
	{"cluster.run_s", "s"},
	{"cluster.ns_per_query", "ns"},
	{"tracein.generate_s", "s"},
	{"tracein.open_ms", "ms"},
	{"tracein.record_ns", "ns"},
	{"trace.record_ns", "ns"},

	{"cacheserve.get_hit_ns", "ns"},
	{"cacheserve.get_miss_ns", "ns"},
	{"cacheserve.set_insert_ns", "ns"},
	{"cacheserve.set_overwrite_ns", "ns"},
	{"cacheserve.set_evict_ns", "ns"},
	{"cacheserve.evictions_per_set", "ratio"},
	{"cacheserve.delete_ns", "ns"},
	{"cacheserve.allocs_per_get", "count"},
	{"cacheserve.allocs_per_set", "count"},
	{"cacheserve.sample_cost_ns", "ns"},
	{"cacheserve.metrics_cost_ns", "ns"},
	{"cacheserve.mops_g1", "M/s"},
	{"cacheserve.mops_gN", "M/s"},
	{"cacheserve.scaling", "ratio"},
	{"cacheserve.lc_get_p50_ns", "ns"},
	{"cacheserve.lc_get_p99_ns", "ns"},
	{"cacheserve.set_p99_ns", "ns"},
	{"cacheserve.lc_hit_ratio", "ratio"},
	{"cacheserve.batch_hit_ratio", "ratio"},
	{"cacheserve.governor_step_p50_us", "us"},
	{"cacheserve.governor_step_max_us", "us"},
	{"cacheserve.setquotas_us", "us"},
	{"cacheserve.stats_us", "us"},
	{"cacheserve.sweep_ms", "ms"},
	{"cacheserve.quota_lc_frac", "ratio"},
	{"cacheserve.quota_scan_frac", "ratio"},
	{"cacheserve.heap_per_cached_byte", "ratio"},
	{"cacheserve.replay_prep_s", "s"},
	{"cacheserve.replay_mops_g1", "M/s"},
	{"metrics.inc_ns", "ns"},
	{"metrics.write_text_ms", "ms"},
	{"ref.mutex_map_get_ns", "ns"},
	{"ref.mutex_map_set_ns", "ns"},
}

// sizes fixes how much work each workload and ledger probe does. Run
// lengths are constants, not flags: `full` is the benchmark, `tiny` is the
// ~1/100 shape bench_test.go runs under `go test`.
type sizes struct {
	// sim-large-mix: LC request factor and batch region of interest.
	largeRF  float64
	largeROI uint64
	// sim-sweep: experiment.Scale fields; sweepMixes > 0 keeps only the
	// first mixes of the Table 3 matrix (tiny only).
	sweepRF    float64
	sweepROI   uint64
	sweepMixes int
	// sim-cluster-fault: request_factor override (0 = the scenario file's).
	clusterRF float64

	// live-qos: capacity, lc key space (batch-zipf 2x, batch-scan 4x),
	// warm-up and per-repetition op counts, governor cadence in worker-0 ops.
	qosCapacity int64
	qosLCTarget int64
	qosKeys     int
	qosWarmOps  int
	qosRepOps   int
	qosGovEvery int
	// live-churn.
	churnCapacity int64
	churnKeys     int // per tenant; 2 tenants x keys x mean entry = 4x capacity
	churnWarmOps  int
	churnRepOps   int
	// live-replay.
	replayRecords  int
	replayKeys     uint64
	replayCapacity int64
	replayRepOps   int

	// ledger: micro-probe batch size, the divisor applied to the live-qos
	// shape for the ledger's own warmed cache, the cycle the checkpoint
	// probes warm a simulator to, and the request factor of its scenario run.
	probeOps        int
	ledgerDiv       int
	ledgerWarmCycle uint64
	ledgerClusterRF float64
}

var fullSizes = sizes{
	largeRF: 0.4, largeROI: 3_000_000,
	sweepRF: 0.01, sweepROI: 30_000,
	qosCapacity: 64 << 20, qosLCTarget: 24 << 20, qosKeys: 200_000,
	qosWarmOps: 2_000_000, qosRepOps: 2_000_000, qosGovEvery: 250_000,
	churnCapacity: 32 << 20, churnKeys: 88_000, churnWarmOps: 1_000_000, churnRepOps: 2_000_000,
	replayRecords: 2_000_000, replayKeys: 400_000, replayCapacity: 32 << 20, replayRepOps: 2_000_000,
	probeOps: 200_000, ledgerDiv: 4, ledgerWarmCycle: 2_000_000, ledgerClusterRF: 0.1,
}

var tinySizes = sizes{
	largeRF: 0.02, largeROI: 100_000,
	sweepRF: 0.005, sweepROI: 10_000, sweepMixes: 1,
	clusterRF:   0.02,
	qosCapacity: 1 << 20, qosLCTarget: 384 << 10, qosKeys: 3_000,
	qosWarmOps: 20_000, qosRepOps: 20_000, qosGovEvery: 2_500,
	churnCapacity: 512 << 10, churnKeys: 1_400, churnWarmOps: 10_000, churnRepOps: 20_000,
	replayRecords: 20_000, replayKeys: 4_000, replayCapacity: 512 << 10, replayRepOps: 20_000,
	probeOps: 4_096, ledgerDiv: 1, ledgerWarmCycle: 50_000, ledgerClusterRF: 0.02,
}
