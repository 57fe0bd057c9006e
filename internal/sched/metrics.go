package sched

import (
	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/obs"
)

// Bucket layouts: wait/service spans 100 microseconds to ~100 seconds
// (both sched_service_seconds series, wall and modeled, are one family and
// so share it); batch sizes are small integers.
var (
	wallBuckets  = obs.ExpBuckets(1e-4, 2, 21)
	batchBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
)

// metrics holds the scheduler's registry instruments. All families are
// created eagerly at construction so a freshly started daemon already
// exports every series obslint requires. The counters are the scheduler's
// only event tallies: Snapshot (hence /healthz) reads them back.
type metrics struct {
	depth        obs.Gauge
	poolInUse    obs.Gauge
	poolSize     obs.Gauge
	poolBytes    obs.Gauge
	wait         obs.Histogram
	serviceWall  obs.Histogram
	serviceModel obs.Histogram
	batchJobs    obs.Histogram
	rejections   obs.Counter
	leases       obs.Counter
	leaseSeconds obs.Counter
	jobs         map[State]obs.Counter

	faultDeaths    obs.Counter
	faultTransfers obs.Counter
	retries        obs.Counter
	evictions      obs.Counter
	readmissions   obs.Counter
	requeues       obs.Counter
	repartitions   obs.Counter
	restores       obs.Counter
	leaseTimeouts  obs.Counter

	// sched_shed_total{reason}, one series per containment gate.
	shedBrownout, shedInfeasible, shedExpired obs.Counter
	brownout                                  obs.Gauge

	precJobs       map[string]obs.Counter
	precWindows    map[string]obs.Counter
	precCompressed obs.Counter
}

// precModes and precWidths are the solver_precision_* label values,
// registered eagerly so the families exist before the first narrowed
// solve. The windows family's help text must match the one the
// convergence sink uses — both feed the same series.
var (
	precModes  = []string{core.PrecisionFP64, core.PrecisionMixed, core.PrecisionAdaptive}
	precWidths = []string{"fp64", "fp32", "fp32+bf16"}
)

func newMetrics(r *obs.Registry, pool *Pool) *metrics {
	shed := func(reason string) obs.Counter {
		return r.CounterL("sched_shed_total",
			"Work shed by the containment layer, by reason.", obs.L("reason", reason))
	}
	m := &metrics{
		depth: r.Gauge("sched_queue_depth",
			"Jobs waiting in the admission queue."),
		poolInUse: r.Gauge("sched_pool_in_use",
			"Device contexts currently leased."),
		poolSize: r.Gauge("sched_pool_size",
			"Device contexts the pool owns."),
		poolBytes: r.Gauge("sched_pool_workspace_bytes",
			"Solve memory the pooled contexts hold: per context, the largest attempt it served."),
		wait: r.Histogram("sched_queue_wait_seconds",
			"Wall-clock time jobs spent queued before dispatch.", wallBuckets),
		serviceWall: r.HistogramL("sched_service_seconds",
			"Per-job service time, by clock source.", wallBuckets,
			obs.L("clock", "wall")),
		serviceModel: r.HistogramL("sched_service_seconds",
			"Per-job service time, by clock source.", wallBuckets,
			obs.L("clock", "modeled")),
		batchJobs: r.Histogram("sched_batch_jobs",
			"Jobs coalesced into one device lease.", batchBuckets),
		rejections: r.Counter("sched_rejections_total",
			"Submissions rejected by admission control (queue full)."),
		leases: r.Counter("sched_leases_total",
			"Device-context leases taken."),
		leaseSeconds: r.Counter("sched_lease_seconds_total",
			"Wall-clock seconds device contexts were leased."),
		jobs: make(map[State]obs.Counter),

		faultDeaths: r.CounterL("sched_faults_injected_total",
			"Faults injected by armed fault plans, by kind.", obs.L("kind", "death")),
		faultTransfers: r.CounterL("sched_faults_injected_total",
			"Faults injected by armed fault plans, by kind.", obs.L("kind", "transfer")),
		retries: r.Counter("sched_transfer_retries_total",
			"Transfer rounds retried after an injected fault."),
		evictions: r.Counter("sched_context_evictions_total",
			"Device contexts evicted by the release health probe."),
		readmissions: r.Counter("sched_context_readmissions_total",
			"Evicted contexts repaired and returned to the pool."),
		requeues: r.Counter("sched_job_requeues_total",
			"Jobs re-queued after a lease fault."),
		repartitions: r.Counter("sched_repartitions_total",
			"Mid-solve row-block re-partitions onto surviving devices."),
		restores: r.Counter("sched_checkpoint_restores_total",
			"Solves resumed from a restart-boundary checkpoint after a device loss."),
		leaseTimeouts: r.Counter("sched_lease_timeouts_total",
			"Leases canceled by the per-lease timeout."),

		shedBrownout:   shed("brownout"),
		shedInfeasible: shed("deadline_infeasible"),
		shedExpired:    shed("deadline_expired"),
	}
	for _, st := range []State{StateDone, StateCanceled, StateFailed} {
		m.jobs[st] = r.CounterL("sched_jobs_total",
			"Jobs finished, by terminal state.", obs.L("state", string(st)))
	}
	m.brownout = r.Gauge("sched_brownout_level",
		"Active SLO-driven brownout level (0 = no shedding).")
	m.precJobs = make(map[string]obs.Counter, len(precModes))
	for _, mode := range precModes {
		m.precJobs[mode] = r.CounterL("solver_precision_jobs_total",
			"Jobs finished, by requested precision mode.", obs.L("mode", mode))
	}
	m.precWindows = make(map[string]obs.Counter, len(precWidths))
	for _, width := range precWidths {
		m.precWindows[width] = r.CounterL("solver_precision_windows_total",
			"CA matrix-powers windows generated, by precision level.", obs.L("width", width))
	}
	m.precCompressed = r.Counter("solver_precision_compressed_transfers_total",
		"Halo exchanges shipped bfloat16-compressed.")
	m.poolSize.Set(float64(pool.Size()))
	m.poolInUse.Set(float64(pool.InUse()))
	pool.OnChange(func(inUse, size int) {
		m.poolInUse.Set(float64(inUse))
		m.poolSize.Set(float64(size))
		m.poolBytes.Set(float64(pool.WorkspaceBytes()))
	})
	pool.OnHealth(func(readmitted bool) {
		m.evictions.Inc()
		if readmitted {
			m.readmissions.Inc()
		}
	})
	return m
}

func (m *metrics) setDepth(d int) { m.depth.Set(float64(d)) }

// leaseReleased records a lease's wall time and batch size at release
// (sched_leases_total counts it at dispatch).
func (m *metrics) leaseReleased(seconds float64, jobs int) {
	m.leaseSeconds.Add(seconds)
	m.batchJobs.Observe(float64(jobs))
}

// faults records one lease's fault-tally delta.
func (m *metrics) faults(d gpu.FaultCounts) {
	m.faultDeaths.Add(float64(d.DeviceDeaths))
	m.faultTransfers.Add(float64(d.TransferFaults))
	m.retries.Add(float64(d.TransferRetries))
}

// precision records one finished job's precision-policy activity: the
// mode it ran, the windows generated at each width, and the compressed
// halo exchanges. A nil report is a pure-fp64 job.
func (m *metrics) precision(rep *core.PrecisionReport) {
	mode := core.PrecisionFP64
	if rep != nil {
		mode = rep.Mode
		m.precWindows["fp64"].Add(float64(rep.WindowsFP64))
		m.precWindows["fp32"].Add(float64(rep.WindowsFP32 - rep.CompressedTransfers))
		m.precWindows["fp32+bf16"].Add(float64(rep.CompressedTransfers))
		m.precCompressed.Add(float64(rep.CompressedTransfers))
	}
	if c, ok := m.precJobs[mode]; ok {
		c.Inc()
	}
}

func (m *metrics) finished(st State, wait, wall, modeled float64) {
	m.jobs[st].Inc()
	m.wait.Observe(wait)
	m.serviceWall.Observe(wall)
	m.serviceModel.Observe(modeled)
}
