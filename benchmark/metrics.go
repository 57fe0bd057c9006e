package main

import "math"

// metricDef names one metric of the benchmark. The lists below are the
// source of truth for what the program emits; BENCHMARK.json at the
// repository root repeats them for the driver, and a test keeps the two
// identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a per-layer count or modeled figure that repeats
	// exactly for a seed; -compare requires equality on these.
	exact bool
}

// Units. Modeled (ledger) seconds carry their own unit so that nobody
// reads them as wall time.
const (
	unitS       = "s"
	unitRate    = "1/s"
	unitMB      = "MB"
	unitCount   = "count"
	unitRatio   = "ratio"
	unitGflops  = "Gflop/s"
	unitBytes   = "B"
	unitModeled = "modeled_s"
)

// endToEnd is measured with tracing off (-trace 0).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: unitS, Better: "lower", Bound: 0.25},
	{Name: "op_p50_s", Unit: unitS, Better: "lower", Bound: 0.25},
	{Name: "op_tail_s", Unit: unitS, Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: unitRate, Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_op", Unit: unitS, Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: unitMB, Better: "lower", Bound: 0.05},
	{Name: "allocs_per_op", Unit: unitCount, Better: "lower", Bound: 0.10},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
func exact(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", exact: true}
}

// perLayer is measured by the traced run (-trace 1).
var perLayer = []metricDef{
	lower("matgen.build_s", unitS),
	exact("matgen.nnz", unitCount),
	lower("graph.kway_s", unitS),
	lower("sparse.spmv_s", unitS),
	higher("sparse.spmv_gflops", unitGflops),
	exact("sparse.spmv_bytes_computed", unitBytes),
	higher("sparse.ell_pad_ratio", unitRatio),
	lower("sparse.permute_s", unitS),
	lower("sparse.balance_s", unitS),
	lower("sparse.mm_parse_s", unitS),
	lower("la.dot_s", unitS),
	higher("la.dot_gflops", unitGflops),
	lower("la.gemv_s", unitS),
	lower("la.gemm_tn_s", unitS),
	lower("la.gemm_nn_s", unitS),
	lower("la.trsm_s", unitS),
	lower("gpu.launch_overhead_s", unitS),
	exact("gpu.modeled_s_per_op", unitModeled),
	exact("gpu.kernels_per_op", unitCount),
	exact("gpu.rounds_per_op", unitCount),
	exact("gpu.msgs_per_op", unitCount),
	exact("gpu.bytes_h2d_per_op", unitBytes),
	exact("gpu.bytes_d2h_per_op", unitBytes),
	exact("gpu.device_flops_per_op", unitCount),
	exact("gpu.modeled_comm_s", unitModeled),
	exact("gpu.modeled_device_s", unitModeled),
	exact("gpu.modeled_host_s", unitModeled),
	exact("gpu.modeled_s.spmv", unitModeled),
	exact("gpu.modeled_s.mpk", unitModeled),
	exact("gpu.modeled_s.orth", unitModeled),
	exact("gpu.modeled_s.borth", unitModeled),
	exact("gpu.modeled_s.tsqr", unitModeled),
	exact("gpu.modeled_s.lsq", unitModeled),
	exact("gpu.modeled_s.vec", unitModeled),
	lower("dist.distribute_s", unitS),
	lower("dist.mpk_window_s", unitS),
	lower("dist.spmv_s", unitS),
	lower("dist.mpk_vs_spmv", unitRatio),
	exact("dist.boundary_nnz_ratio", unitRatio),
	lower("dist.dotcols_s", unitS),
	lower("ortho.tsqr_s", unitS),
	lower("ortho.borth_s", unitS),
	lower("ortho.orth_err", unitRatio),
	lower("core.prepare_s", unitS),
	lower("core.solve_s", unitS),
	lower("core.s_per_restart", unitS),
	exact("core.iters", unitCount),
	exact("core.restarts", unitCount),
	lower("core.relres", unitRatio),
	lower("core.true_relres", unitRatio),
	lower("core.telemetry_ratio", unitRatio),
	lower("sched.queue_wait_p50_s", unitS),
	lower("sched.queue_wait_tail_s", unitS),
	lower("sched.service_p50_s", unitS),
	lower("sched.submit_p50_s", unitS),
	higher("sched.batch_mean", unitRatio),
	lower("sched.rejected", unitCount),
	lower("sched.requeues", unitCount),
	lower("sched.lease_timeouts", unitCount),
	lower("server.overhead_p50_s", unitS),
	lower("server.inline_overhead_p50_s", unitS),
	lower("server.cache_miss_s", unitS),
	lower("server.req_bytes_p50", unitBytes),
	lower("server.resp_bytes_p50", unitBytes),
	lower("server.healthz_s", unitS),
	lower("cluster.hop_overhead_p50_s", unitS),
	lower("cluster.busiest_share", unitRatio),
	lower("cluster.reroutes", unitCount),
	lower("cluster.rejects", unitCount),
	lower("cluster.hedges", unitCount),
	lower("cluster.breaker_skips", unitCount),
	lower("obs.scrape_s", unitS),
	lower("obs.scrape_bytes", unitBytes),
	lower("obs.trace_export_s", unitS),
	lower("obs.spans_per_job", unitCount),
	lower("proc.peak_rss_mb", unitMB),
	lower("proc.gc_cycles_per_op", unitCount),
	lower("proc.gc_pause_s_per_op", unitS),
	lower("proc.goroutines_end", unitCount),
	lower("trace.overhead_ratio", unitRatio),
}

// value is one reported metric. A nil Value is a rung the workload never
// reaches; the full document prints it as null and the driver's result
// line as 0.
type value struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// metricSet collects values against a fixed list of definitions: setting
// a name outside the list is a bug in the benchmark, so it panics.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return // a ratio over nothing measured: leave the metric null
	}
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

// document renders every declared metric, null where nothing was set.
func (m *metricSet) document() map[string]value {
	out := make(map[string]value, len(m.defs))
	for _, d := range m.defs {
		mv := value{Unit: d.Unit}
		if v, ok := m.vals[d.Name]; ok {
			v := v
			mv.Value = &v
		}
		out[d.Name] = mv
	}
	return out
}
