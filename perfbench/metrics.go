package main

import "dnnlock/internal/metrics"

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (TestMetricTablesMatchBenchmarkJSON pins it).
type metricSpec struct {
	name, unit string
}

// endToEnd is what a user of the system sees, measured untraced. Every
// workload reports every one of them, so each is defined for closed loops
// and for the daemon alike (README.md gives both readings).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"attacks_per_s", "1/s"},
	{"attack_s.p50", "s"},
	{"attack_s.tail", "s"},
	{"queries_per_attack", "queries"},
	{"rounds_per_attack", "round-trips"},
	{"success_ratio", "ratio"},
	{"peak_heap_mb", "MiB"},
}

// cpuBuckets are the CPU-profile buckets, by the package of the sampled
// leaf function: the repository's modules, the Go runtime, and the rest.
var cpuBuckets = []string{"tensor", "nn", "train", "geometry", "core", "oracle", "farm", "harness", "service", "obs", "runtime", "other"}

// procSuffix is the metric-name form of a Figure 3 procedure.
var procSuffix = map[metrics.Procedure]string{
	metrics.ProcKeyBitInference:     "key_bit_inference",
	metrics.ProcLearningAttack:      "learning_attack",
	metrics.ProcKeyVectorValidation: "key_vector_validation",
	metrics.ProcErrorCorrection:     "error_correction",
}

// models are the architectures a cell can be.
var models = []string{"mlp", "lenet", "resnet", "vtransformer"}

// perLayer is what the traced run reports: one group per layer, measured
// from outside by timing the calls the benchmark makes into it. A layer a
// workload bypasses reports 0.
var perLayer = func() []metricSpec {
	var ms []metricSpec
	for _, b := range cpuBuckets {
		ms = append(ms, metricSpec{"cpu." + b, "share"})
	}
	ms = append(ms, metricSpec{"core.attack_s", "s"})
	for _, p := range metrics.AllProcedures {
		ms = append(ms, metricSpec{"core." + procSuffix[p] + "_s", "s"})
	}
	ms = append(ms,
		metricSpec{"core.unattributed_s", "s"},
		metricSpec{"core.bisect_rounds", "count"},
		metricSpec{"core.bisect_probes", "count"},
		metricSpec{"core.learning_fallback_ratio", "ratio"},
	)
	for _, p := range metrics.AllProcedures {
		ms = append(ms, metricSpec{"core.queries." + procSuffix[p], "queries"})
	}
	for _, p := range metrics.AllProcedures {
		ms = append(ms, metricSpec{"core.rounds." + procSuffix[p], "round-trips"})
	}
	ms = append(ms,
		metricSpec{"oracle.calls_per_attack", "count"},
		metricSpec{"oracle.rows_per_call", "rows"},
		metricSpec{"oracle.busy_s", "s"},
		metricSpec{"oracle.busy_share", "ratio"},
	)
	for _, m := range models {
		ms = append(ms, metricSpec{"harness.prepare_s." + m, "s"})
	}
	ms = append(ms,
		metricSpec{"farm.rounds_per_job", "round-trips"},
		metricSpec{"farm.sim_s.p90", "sim_s"},
		metricSpec{"sim_attack_s.p50", "sim_s"},
		metricSpec{"service.submit_s.p50", "s"},
		metricSpec{"service.queue_wait_s.p50", "s"},
		metricSpec{"service.queue_wait_s.p90", "s"},
		metricSpec{"service.run_s.p50", "s"},
		metricSpec{"service.run_s.p90", "s"},
		metricSpec{"service.run_s.cached_cell.p50", "s"},
		metricSpec{"service.run_s.fresh_cell.p50", "s"},
		metricSpec{"service.rejected", "count"},
		metricSpec{"service.backlog_max", "count"},
		metricSpec{"job_latency_s.p50.light", "s"},
		metricSpec{"job_latency_s.p90.light", "s"},
		metricSpec{"job_latency_s.p50.heavy", "s"},
		metricSpec{"job_latency_s.p90.heavy", "s"},
		metricSpec{"slo_jobs_per_s", "jobs/s"},
		metricSpec{"client.lag_s.p99", "s"},
		metricSpec{"client.polls", "count"},
		metricSpec{"obs.trace_overhead_ratio", "ratio"},
		metricSpec{"runtime.alloc_mb_per_attack", "MiB"},
		metricSpec{"runtime.gc_cycles_per_attack", "count"},
	)
	return ms
}()

// zeroPerLayer returns every per-layer metric at 0, for a workload to fill
// in the layers it reaches.
func zeroPerLayer() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.name] = 0
	}
	return v
}
