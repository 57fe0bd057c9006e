package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/sched"
)

// serveRow is one point of the serving sweep: Clients closed-loop
// clients against the real scheduler, run on the virtual clock.
type serveRow struct {
	Clients int
	// Requests counts submissions; Done, Canceled and Failed count the
	// terminal states they reached.
	Requests int
	Done     int
	Canceled int
	Failed   int
	// Leases counts device leases, Batched the jobs that shared one with
	// another, Prepared the problem preparations (cache misses).
	Leases   int
	Batched  int
	Prepared int
	// Latency percentiles (submit to response) and mean, in seconds.
	P50, P90, P99, Max, Mean float64
	// WaitP50 and WaitP99 are submit to attempt start, in seconds: the
	// queue plus the wait behind batch mates.
	WaitP50, WaitP99 float64
	// ThroughputPerSec is completions over the makespan.
	ThroughputPerSec float64
	// The scheduler's own SLO engine at the end of the run, for the one
	// class every request falls in: bad requests, error budget left and
	// the two burn rates.
	SLOBad      int
	SLOBudget   float64
	SLOBurnFast float64
	SLOBurnSlow float64
}

// The serving sweep's fixed shape: cagmresd's defaults (2 pooled
// contexts of 3 devices, queue 64, batches of 8) solving one generated
// matrix, each client issuing serveRequests requests back to back.
const (
	serveMatrix   = "laplace3d"
	serveScale    = 1e-4
	servePool     = 2
	serveDevices  = 3
	serveQueue    = 64
	serveBatch    = 8
	serveRequests = 4
)

// serveClients is the concurrency sweep.
var serveClients = []int{1, 2, 4, 8, 16}

// rpcOverhead is the modeled per-request RPC overhead of an n-row solve
// (JSON decode + admission + response), charged as a serial host kernel
// that moves the rhs in and x out, 8 bytes each way.
func rpcOverhead(m gpu.CostModel, n int) float64 {
	return m.HostKernelTime(gpu.HostKernel{
		Bytes: float64(16 * n), Parallelism: 1, Dispatches: 4,
	})
}

// figServe is the serving sweep: 1–16 closed-loop clients, each
// submitting its next solve rpcOverhead after the previous response,
// against a sched.Scheduler built like cagmresd's default and run on
// sched.Virtual. Every solve is real, and each lasts the modeled seconds
// it charged to its lease's ledger, so the rows are a pure function of
// the cost model. The scheduler batches same-matrix requests and
// prepares the problem once per device count, as the daemon does.
func figServe(cfg Config) []serveRow {
	cfg.defaults()
	a, err := matgen.ByName(serveMatrix, serveScale)
	if err != nil {
		panic(err)
	}
	overhead := rpcOverhead(cfg.Profile.Model, a.A.Rows)
	cfg.printf("Serving sweep: %s n=%d, pool %dx%d GPUs, queue %d, batch %d, %d requests/client, rpc overhead %.1fus (modeled time)\n",
		serveMatrix, a.A.Rows, servePool, serveDevices, serveQueue, serveBatch, serveRequests, overhead*1e6)
	cfg.printf("%8s %10s %10s %10s %10s %10s %12s %10s %10s %7s %8s\n",
		"clients", "p50", "p90", "p99", "max", "mean", "throughput/s", "wait p50", "wait p99", "leases", "prepared")
	var rows []serveRow
	for _, k := range serveClients {
		r := serveRun(cfg, a, k, overhead)
		cfg.printf("%8d %10.4f %10.4f %10.4f %10.4f %10.4f %12.2f %10.4f %10.4f %7d %8d\n",
			r.Clients, r.P50, r.P90, r.P99, r.Max, r.Mean, r.ThroughputPerSec, r.WaitP50, r.WaitP99, r.Leases, r.Prepared)
		cfg.printf("         slo: %d/%d bad, budget %.4f, burn fast %.4f slow %.4f\n",
			r.SLOBad, r.Requests, r.SLOBudget, r.SLOBurnFast, r.SLOBurnSlow)
		rows = append(rows, r)
	}
	return rows
}

// serveRun drives one sweep point to completion on a fresh scheduler.
func serveRun(cfg Config, a *matgen.Matrix, clients int, overhead float64) serveRow {
	v := sched.NewVirtual()
	s := sched.New(sched.Config{
		Pool:       sched.NewPool(sched.PoolConfig{Size: servePool, Devices: serveDevices, Profile: cfg.Profile}),
		QueueDepth: serveQueue,
		MaxBatch:   serveBatch,
		Tracer:     obs.NewTracerSeeded(nil, 1),
		Clock:      v,
	})
	gap := time.Duration(math.Round(overhead * 1e9))
	key := fmt.Sprintf("%s@%g", serveMatrix, serveScale)
	var jobs []*sched.Job
	var submit func(c, i int)
	submit = func(c, i int) {
		j, err := s.Submit(context.Background(), sched.Spec{
			Matrix: a.A, MatrixKey: key,
			B: matgen.RHS(a.A.Rows, c*serveRequests+i), Solver: "ca",
			Ordering: core.KWay, Balance: true,
			Opts: core.Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Precision: cfg.Precision},
		}, 0, 0)
		if err != nil { // the queue holds every client's one outstanding request
			panic(err)
		}
		jobs = append(jobs, j)
		if i+1 < serveRequests {
			v.WhenDone(j, func() { v.AfterFunc(gap, func() { submit(c, i+1) }) })
		}
	}
	for c := range clients {
		v.AfterFunc(0, func() { submit(c, 0) })
	}
	v.Run(s)

	r := serveRow{Clients: clients, Requests: len(jobs)}
	var lat, wait []float64
	for _, j := range jobs {
		switch j.State() {
		case sched.StateDone:
			r.Done++
		case sched.StateCanceled:
			r.Canceled++
		case sched.StateFailed:
			r.Failed++
		}
		w := j.WaitSeconds()
		wait = append(wait, w)
		lat = append(lat, w+j.ServiceSeconds())
	}
	sort.Float64s(lat)
	sort.Float64s(wait)
	r.P50, r.P90, r.P99, r.Max = pct(lat, 50), pct(lat, 90), pct(lat, 99), lat[len(lat)-1]
	for _, x := range lat {
		r.Mean += x / float64(len(lat))
	}
	r.WaitP50, r.WaitP99 = pct(wait, 50), pct(wait, 99)
	r.ThroughputPerSec = float64(r.Done) / v.Now().Sub(time.Unix(0, 0)).Seconds()
	snap := s.Snapshot()
	r.Leases, r.Batched, r.Prepared = int(snap.Leases), int(snap.Batched), int(snap.PreparedMisses)
	for _, c := range s.SLO().Report().Classes {
		if c.Requests > 0 {
			r.SLOBad, r.SLOBudget, r.SLOBurnFast, r.SLOBurnSlow = c.Bad, c.BudgetRemaining, c.BurnFast, c.BurnSlow
		}
	}
	return r
}

// pct is the nearest-rank percentile of sorted values.
func pct(sorted []float64, p float64) float64 {
	return sorted[int(float64(len(sorted)-1)*p/100+0.5)]
}
