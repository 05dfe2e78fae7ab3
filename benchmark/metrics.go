package main

// The metric vocabulary. BENCHMARK.json is printed from these tables
// (-manifest) and the self-test keeps the two identical.

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees. All four are
// measured on every workload; README.md says why the issue's other five
// (latency percentiles, time to target, final loss, failed share) are
// reported elsewhere, and why the bounds are what this machine can hold.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"rep_wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the metrics of single layers, named <module>.<what>. A
// layer a workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{"experiments.build_env_s", "s", "lower", 0},
	{"experiments.alg.fedavg.wall_s", "s", "lower", 0},
	{"experiments.alg.fedasync.wall_s", "s", "lower", 0},
	{"experiments.alg.hierfavg.wall_s", "s", "lower", 0},
	{"experiments.alg.spyker.wall_s", "s", "lower", 0},
	{"experiments.alg.sync-spyker.wall_s", "s", "lower", 0},

	{"fl.train.calls", "count", "lower", 0},
	{"fl.train.busy_s", "s", "lower", 0},
	{"fl.train.share", "share", "lower", 0},
	{"fl.setparams.busy_s", "s", "lower", 0},
	{"fl.setparams.share", "share", "lower", 0},
	{"fl.newmodel.busy_s", "s", "lower", 0},
	{"fl.newmodel.share", "share", "lower", 0},
	{"fl.paramsview.calls", "count", "lower", 0},

	{"nn.mnist.train_sample_us", "us", "lower", 0},
	{"nn.mnist.eval_sample_us", "us", "lower", 0},
	{"nn.wiki.train_window_us", "us", "lower", 0},
	{"nn.wiki.eval_window_us", "us", "lower", 0},
	{"tensor.matvec_ns", "ns", "lower", 0},

	{"metrics.observe.calls", "count", "lower", 0},
	{"metrics.observe.busy_s", "s", "lower", 0},
	{"metrics.observe.share", "share", "lower", 0},
	{"metrics.evals", "count", "lower", 0},
	{"metrics.final_loss", "loss", "lower", 0},
	{"metrics.time_to_target_virtual_s", "virtual_s", "lower", 0},

	{"spyker.build_s", "s", "lower", 0},
	{"spyker.syncs", "count", "higher", 0},
	{"spyker.protocol_residual_s", "s", "lower", 0},
	{"spyker.protocol_residual_share", "share", "lower", 0},
	{"spyker.protocol_us_per_update", "us", "lower", 0},

	{"simulation.events", "count", "lower", 0},
	{"simulation.events_per_update", "count", "lower", 0},
	{"simulation.ns_per_event", "ns", "lower", 0},
	{"simulation.virtual_s_per_wall_s", "ratio", "higher", 0},
	{"geo.transfers", "count", "lower", 0},
	{"geo.bytes_client_server", "bytes", "lower", 0},
	{"geo.bytes_server_server", "bytes", "lower", 0},
	{"geo.send_ns", "ns", "lower", 0},
	{"paramvec.axpy_ns_per_elem", "ns", "lower", 0},
	{"paramvec.merge_ns_per_elem", "ns", "lower", 0},
	{"paramvec.copy_ns_per_elem", "ns", "lower", 0},
	{"paramvec.pool_get_put_ns", "ns", "lower", 0},

	{"transport.echo_rtt_us", "us", "lower", 0},
	{"transport.send_us", "us", "lower", 0},
	{"transport.send.share", "share", "lower", 0},
	{"transport.wire_bytes_per_update", "bytes", "lower", 0},
	{"transport.estimate_ratio", "ratio", "higher", 0},

	{"live.rtt_p50_us", "us", "lower", 0},
	{"live.rtt_p90_us", "us", "lower", 0},
	{"live.rtt_p99_us", "us", "lower", 0},
	{"live.rtt_max_us", "us", "lower", 0},
	{"live.wait_us", "us", "lower", 0},
	{"live.wait.share", "share", "lower", 0},
	{"live.server_residual_us", "us", "lower", 0},
	{"live.syncs", "count", "higher", 0},
	{"live.updates_per_sync", "count", "lower", 0},
	{"live.model_spread", "l2", "lower", 0},
	{"live.teardown_s", "s", "lower", 0},
	{"loadgen.share", "share", "lower", 0},

	{"go.allocs_per_update", "count", "lower", 0},
	{"go.alloc_bytes_per_update", "bytes", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.cpu_s", "s", "lower", 0},
	{"go.cpu_per_wall", "ratio", "lower", 0},

	{"trace.overhead_share", "share", "lower", 0},
	{"trace.share_sum", "share", "higher", 0},
	{"trace.spans", "count", "lower", 0},
}
