package main

import (
	"fmt"
	"math"
)

// metricDef names one reported number. BENCHMARK.json at the repository
// root lists the same names, units and directions (bench_test.go holds the
// two together); README.md says how each is measured and which end-to-end
// metric it should move, on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are what a caller of the system sees, reported on every workload
// from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p90_ms", "ms", "lower", 0.10},
	{"ops_per_s", "1/s", "higher", 0.12},
	{"modeled_ms", "ms", "lower", 0.06},
}

// perLayer attribute an op's time and work to single modules, reported from
// the traced run. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"gen.build_s", "s", "lower", 0},
	{"sparse.tocsr_s", "s", "lower", 0},
	{"sparse.ref_mul_ms", "ms", "lower", 0},
	{"sparse.ref_mul_par_ms", "ms", "lower", 0},
	{"kernels.axpy_ns", "ns", "lower", 0},
	{"kernels.gflops", "gflop/s", "higher", 0},
	{"kernels.flops_per_byte", "flop/B", "higher", 0},
	{"core.preprocess_s", "s", "lower", 0},
	{"core.sync_stripes", "count", "lower", 0},
	{"core.async_stripes", "count", "lower", 0},
	{"core.sync_nnz", "count", "lower", 0},
	{"core.async_nnz", "count", "lower", 0},
	{"core.multiply_ms", "ms", "lower", 0},
	{"core.run_ms", "ms", "lower", 0},
	{"core.outside_run_ms", "ms", "lower", 0},
	{"core.over_ref", "ratio", "lower", 0},
	{"core.alloc_mb_per_op", "MB", "lower", 0},
	{"core.mallocs_per_op", "count", "lower", 0},
	{"core.gc_pause_ms_per_op", "ms", "lower", 0},
	{"core.rowcache_hit_frac", "ratio", "higher", 0},
	{"core.cold_ms", "ms", "lower", 0},
	{"core.warm_ms", "ms", "lower", 0},
	{"cluster.read_calls", "count", "lower", 0},
	{"cluster.read_regions", "count", "lower", 0},
	{"cluster.read_mb", "MB", "lower", 0},
	{"cluster.expose_calls", "count", "lower", 0},
	{"cluster.barrier_calls", "count", "lower", 0},
	{"cluster.read_busy_ms", "ms", "lower", 0},
	{"cluster.read_busy_max_rank_ms", "ms", "lower", 0},
	{"cluster.barrier_wait_ms", "ms", "lower", 0},
	{"cluster.barrier_wait_max_rank_ms", "ms", "lower", 0},
	{"cluster.collective_mb", "MB", "lower", 0},
	{"cluster.onesided_mb", "MB", "lower", 0},
	{"cluster.onesided_gets", "count", "lower", 0},
	{"cluster.modeled_sync_ms", "ms", "lower", 0},
	{"cluster.modeled_async_ms", "ms", "lower", 0},
	{"cluster.modeled_overlap_ms", "ms", "higher", 0},
	{"cluster.modeled_other_ms", "ms", "lower", 0},
	{"transport.tcp.dial_s", "s", "lower", 0},
	{"transport.tcp.read_rtt_us", "us", "lower", 0},
	{"transport.tcp.read_mbps", "MB/s", "higher", 0},
	{"transport.tcp.read_busy_ms", "ms", "lower", 0},
	{"transport.tcp.barrier_wait_ms", "ms", "lower", 0},
	{"transport.tcp.over_sim", "ratio", "lower", 0},
	{"serve.seed_ms", "ms", "lower", 0},
	{"serve.octet_ms", "ms", "lower", 0},
	{"serve.json_ms", "ms", "lower", 0},
	{"serve.exec_ms", "ms", "lower", 0},
	{"serve.queue_ms", "ms", "lower", 0},
	{"serve.queue_p90_ms", "ms", "lower", 0},
	{"serve.octet_decode_ms", "ms", "lower", 0},
	{"serve.json_decode_ms", "ms", "lower", 0},
	{"serve.http_ms", "ms", "lower", 0},
	{"serve.exec_over_solo", "ratio", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.coalesced", "count", "higher", 0},
	{"serve.req_mb", "MB", "lower", 0},
	{"obs.on_overhead_frac", "ratio", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.reconcile_err_frac", "ratio", "lower", 0},
	{"host.peak_rss_mb", "MB", "lower", 0},
	{"host.nproc", "count", "higher", 0},
}

// metricValue is one reported number in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs measured values with their definitions: every defined metric
// appears once, with its unit. A per-layer metric the workload did not
// measure reads 0; a missing or non-finite end-to-end metric is an error,
// because a later change is judged against it.
func report(defs []metricDef, values map[string]float64, required bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %s, which no metric definition names", name)
		}
	}
	return out, nil
}
