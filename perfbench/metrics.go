package main

// metricDef names one reported metric. owner is the workload that measures
// it ("" = every workload); on the other workloads a per-layer metric reads
// 0 because its layer does no work there. BENCHMARK.json lists the same
// names and units (pinned by TestBenchmarkJSONMatchesMetricTable).
type metricDef struct {
	name, unit, better, owner string
}

// endToEnd are the metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"wall_s", "s", "lower", ""},
	{"samples_per_s", "1/s", "higher", ""},
	{"rss_mb", "MB", "lower", ""},
}

// mcUnitNames are the four paper Monte Carlo units of the mc_units
// workload, in interleaving order.
var mcUnitNames = []string{"inv_fo3", "nand2_fo3", "dff", "sram"}

// perUnitLayer are the per-layer metrics each mc_units unit reports, as
// "<unit>.<name>".
var perUnitLayer = []metricDef{
	// vsmodel
	{"model_evals_per_sample", "count", "lower", "mc_units"},
	{"device_eval_ns_per_eval", "ns", "lower", "mc_units"},
	{"device_eval_frac", "frac", "lower", "mc_units"},
	// spice
	{"solve_ms", "ms", "lower", "mc_units"},
	{"stamp_frac", "frac", "lower", "mc_units"},
	{"newton_iters_per_sample", "count", "lower", "mc_units"},
	{"tran_steps_per_sample", "count", "lower", "mc_units"},
	{"jac_refresh_per_step", "count", "lower", "mc_units"},
	{"rescues", "count", "lower", "mc_units"},
	// linalg
	{"lu_frac", "frac", "lower", "mc_units"},
	{"matrix_n", "count", "lower", "mc_units"},
	{"matrix_nnz", "count", "lower", "mc_units"},
	// circuits, measure
	{"restat_us", "us", "lower", "mc_units"},
	{"measure_us", "us", "lower", "mc_units"},
	// montecarlo
	{"sample_ms_p50", "ms", "lower", "mc_units"},
	{"sample_ms_p99", "ms", "lower", "mc_units"},
	{"samples", "count", "higher", "mc_units"},
	{"alloc_bytes_per_sample", "B", "lower", "mc_units"},
	{"allocs_per_sample", "count", "lower", "mc_units"},
	// the traced sample wall no span covers
	{"unattributed_frac", "frac", "lower", "mc_units"},
}

// reproExperiments are the experiments whose wall time repro reports.
var reproExperiments = []string{"table3", "fig5", "fig6", "fig7", "fig8", "fig9", "table4"}

// table4Cells are the rows of paper Table IV.
var table4Cells = []string{"nand2", "dff", "sram"}

// perLayer are the metrics every traced run reports.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, u := range mcUnitNames {
		out = append(out, metricDef{u + "_us_per_sample", "us", "lower", "mc_units"})
		for _, d := range perUnitLayer {
			d.name = u + "." + d.name
			out = append(out, d)
		}
	}
	for _, e := range reproExperiments {
		out = append(out, metricDef{"experiments." + e + "_s", "s", "lower", "repro"})
	}
	for _, c := range table4Cells {
		out = append(out,
			metricDef{"table4." + c + ".vs_s", "s", "lower", "repro"},
			metricDef{"table4." + c + ".golden_s", "s", "lower", "repro"})
	}
	out = append(out,
		metricDef{"table4_speedup", "x", "higher", "repro"},
		metricDef{"repro.model_evals", "count", "lower", "repro"},
		metricDef{"repro.newton_iters", "count", "lower", "repro"},

		metricDef{"shard.dispatch_ms_p50", "ms", "lower", "shard_campaign"},
		metricDef{"shard.dispatch_ms_p99", "ms", "lower", "shard_campaign"},
		metricDef{"shard.exec_ms_p50", "ms", "lower", "shard_campaign"},
		metricDef{"shard.wire_overhead_frac", "frac", "lower", "shard_campaign"},
		metricDef{"shard.wire_bytes_per_sample", "B", "lower", "shard_campaign"},
		metricDef{"shard.commit_ms_p50", "ms", "lower", "shard_campaign"},
		metricDef{"shard.journal_bytes_per_shard", "B", "lower", "shard_campaign"},
		metricDef{"shard.fold_us_per_shard", "us", "lower", "shard_campaign"},
		metricDef{"shard.commit_ratio", "frac", "higher", "shard_campaign"},
		metricDef{"shard.retried", "count", "lower", "shard_campaign"},
		metricDef{"shard.peak_live_envelopes", "count", "lower", "shard_campaign"},
		metricDef{"shard.endpoint_busy_frac", "frac", "higher", "shard_campaign"},
		metricDef{"shard.device_us_per_sample", "us", "lower", "shard_campaign"},

		metricDef{"obs.trace_overhead_frac", "frac", "lower", ""},
	)
	return out
}
