package main

import (
	"fmt"
	"runtime"
	"time"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

// solveEnv is a solve workload after set-up: the generated matrix, the
// seeded right-hand sides, one simulated 3-GPU context and (unless the
// workload prepares inside the op) the prepared problem.
type solveEnv struct {
	w   workload
	a   *sparse.CSR
	rhs [][]float64
	ctx *gpu.Context
	p   *core.Problem

	// itersOf[k] is the iteration count the k-th right-hand side gave
	// the first time it was solved; a later op on it must repeat it.
	itersOf          []int
	nondeterministic bool
}

// opResult is one op: a solve plus its correctness check.
type opResult struct {
	seconds float64 // prepare (cold workloads) + solve; the check is not in it
	cpuS    float64 // process CPU over the same interval
	solveS  float64
	res     *core.Result
	trueRel float64
	failure string // empty when the op succeeded
}

func setupSolve(w workload, seed int64, tr *tracer) (*solveEnv, error) {
	root := tr.start("setup", 0, 0, 0)
	defer tr.end(root)

	s := tr.start("matgen.ByName", root, 0, 0)
	mat, err := matgen.ByName(w.Matrix, w.Scale)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	e := &solveEnv{w: w, a: mat.A, ctx: gpu.NewContext(devices, gpu.M2090())}
	s = tr.start("rhs", root, 0, 0)
	e.rhs = rhsSet(e.a.Rows, w.RHS, seed)
	tr.end(s)
	e.itersOf = make([]int, len(e.rhs))
	if !w.Cold {
		s = tr.start("core.NewProblem", root, 0, 0)
		e.p, err = core.NewProblem(e.ctx, e.a, e.rhs[0], w.Ordering, true)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < warmupOps; i++ {
		s = tr.start("warm-up op", root, 0, 0)
		r := e.op(i, nil, 0, 0)
		tr.end(s)
		if r.failure != "" {
			return nil, fmt.Errorf("warm-up op %d: %s", i, r.failure)
		}
	}
	return e, nil
}

// op runs the i-th op and checks its result. Spans hang under parent.
func (e *solveEnv) op(i int, tr *tracer, parent, opID int) opResult {
	w := e.w
	k := i % len(e.rhs)
	b := e.rhs[k]
	var out opResult
	var err error
	p := e.p
	t0, c0 := time.Now(), cpuSeconds()
	if w.Cold {
		s := tr.start("core.NewProblem", parent, opID, 0)
		p, err = core.NewProblem(e.ctx, e.a, b, w.Ordering, true)
		tr.end(s)
	} else {
		s := tr.start("core.Problem.SetB", parent, opID, 0)
		err = p.SetB(b)
		tr.end(s)
	}
	if err == nil {
		name := "core.CAGMRES"
		if w.Solver == "gmres" {
			name = "core.GMRES"
		}
		s := tr.start(name, parent, opID, 0)
		t1 := time.Now()
		out.res, err = w.solve(p, w.options())
		out.solveS = time.Since(t1).Seconds()
		tr.end(s)
	}
	out.seconds, out.cpuS = time.Since(t0).Seconds(), cpuSeconds()-c0
	if err != nil {
		out.failure = err.Error()
		return out
	}
	s := tr.start("check core.ResidualNorm", parent, opID, 0)
	out.trueRel = core.ResidualNorm(e.a, b, out.res.X)
	tr.end(s)
	out.res.X = nil // checked; a window keeps its results, not their solutions
	out.failure = checkResult(out.res.Converged, out.res.RelRes, out.trueRel)
	if e.itersOf[k] == 0 {
		e.itersOf[k] = out.res.Iters
	} else if e.itersOf[k] != out.res.Iters {
		e.nondeterministic = true
	}
	return out
}

// checkResult applies the per-op correctness gate; trueRel < 0 means the
// solution vector was not available to recompute the residual from.
func checkResult(converged bool, relres, trueRel float64) string {
	switch {
	case !converged:
		return "not converged"
	case !(relres <= tol):
		return fmt.Sprintf("relres %.3e > %g", relres, tol)
	case trueRel >= 0 && !(trueRel <= trueTol):
		return fmt.Sprintf("host-recomputed residual %.3e > %g", trueRel, trueTol)
	}
	return ""
}

// solveWindow is a timed window of ops plus what the traced run derives
// from them.
type solveWindow struct {
	window
	results  []opResult      // succeeded ops, in order
	position []int           // list position (right-hand side) of each of them
	byIndex  map[int]float64 // seconds of succeeded ops by op index
	failures []string
}

// settle fills the window's time figures from the succeeded ops: each
// op's wall and CPU time become the fastest seen on its right-hand
// side. The ops run one after another, so the sums are what the same
// passes take when no op is disturbed; the per-op checks between the
// ops are not in them.
func (sw *solveWindow) settle() {
	wall, cpu := make([]float64, len(sw.results)), make([]float64, len(sw.results))
	for j, r := range sw.results {
		wall[j], cpu[j] = r.seconds, r.cpuS
	}
	sw.raw, sw.durations = wall, fastestAt(wall, sw.position)
	sw.wall = sum(sw.durations)
	sw.cpu = sum(fastestAt(cpu, sw.position))
}

// tracedOp reports whether op i records spans in a traced run. Ops repeat
// their inputs with the given period; alternate ops are traced, and the
// alternation flips every period, so over two periods every input is
// solved once traced and once untraced and both sides of
// trace.overhead_ratio do the same work.
func tracedOp(i, period int) bool { return (i/period+i%period)%2 == 1 }

// traceOverhead is trace.overhead_ratio: the median, over pairs of ops on
// the same input one period apart, of the traced op's seconds over the
// untraced one's. seconds maps op index to duration; failed ops are
// absent and their pairs dropped.
func traceOverhead(seconds map[int]float64, period int) float64 {
	var ratios []float64
	for i, a := range seconds {
		b, ok := seconds[i+period]
		if (i/period)%2 != 0 || !ok {
			continue
		}
		if tracedOp(i, period) {
			ratios = append(ratios, a/b)
		} else {
			ratios = append(ratios, b/a)
		}
	}
	return median(ratios)
}

// runOps times whole passes over the right-hand sides until both the
// duration and minOps are reached. A traced window ends on an even
// number of passes (see tracedOp).
func (e *solveEnv) runOps(d time.Duration, minOps int, tr *tracer) *solveWindow {
	sw := &solveWindow{byIndex: map[int]float64{}}
	cycle := len(e.rhs)
	runtime.GC()
	sw.before = snapshot()
	start := time.Now()
	for i := 0; ; i++ {
		if i%cycle == 0 && i >= minOps && time.Since(start) >= d && (tr == nil || i%(2*cycle) == 0) {
			break
		}
		opTr := tr
		if !tracedOp(i, cycle) {
			opTr = nil
		}
		id := opTr.start("op", 0, i+1, 0)
		r := e.op(i, opTr, id, i+1)
		opTr.end(id)
		sw.attempted++
		if r.failure != "" {
			sw.failed++
			sw.failures = append(sw.failures, fmt.Sprintf("op %d: %s", i, r.failure))
			continue
		}
		sw.results = append(sw.results, r)
		sw.position = append(sw.position, i%cycle)
		sw.byIndex[i] = r.seconds
	}
	sw.after = snapshot()
	sw.settle()
	return sw
}

// runSolve is one benchmark run of a solve workload.
func runSolve(w workload, cfg runConfig) (*report, error) {
	rep := newReport(w, cfg)
	if cfg.Trace {
		return runSolveTraced(w, cfg, rep)
	}
	var env *solveEnv
	var setups []float64
	for i := 0; i < w.SetupReps; i++ {
		env = nil // let the previous repetition's matrices go before building the next
		t0 := time.Now()
		e, err := setupSolve(w, cfg.Seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	sw := env.runOps(cfg.duration(), w.MinOps, nil)
	sw.endToEndMetrics(rep.metrics, fastest(setups), w.tailPct())
	rep.finish(&sw.window, sw.failures, env.nondeterministic)
	return rep, nil
}

func runSolveTraced(w workload, cfg runConfig, rep *report) (*report, error) {
	tr := newTracer()
	env, err := setupSolve(w, cfg.Seed, tr)
	if err != nil {
		return nil, err
	}
	sw := env.runOps(cfg.duration()*2/5, 2*len(env.rhs), tr)
	m := rep.metrics
	m.set("proc.peak_rss_mb", peakRSSMB())
	sw.gcMetrics(m)
	m.set("trace.overhead_ratio", traceOverhead(sw.byIndex, len(env.rhs)))
	// Counts and modeled figures come from the first cycle through the
	// right-hand sides, which is the same set of solves for a seed
	// however many ops the window fitted.
	first := sw.results
	if len(first) > len(env.rhs) {
		first = first[:len(env.rhs)]
	}
	solveMetrics(m, first, sw.results)
	if _, err := solveRungs(m, tr, env); err != nil {
		return nil, err
	}
	m.set("proc.goroutines_end", float64(runtime.NumGoroutine()))
	rep.finishTraced(tr, &sw.window, sw.failures, env.nondeterministic)
	return rep, nil
}

// solveMetrics fills the core.* and gpu.* metrics: exact ones from the
// first cycle, wall ones from every op of the window.
func solveMetrics(m *metricSet, first, all []opResult) {
	if len(first) == 0 {
		return
	}
	var iters, restarts, relres, trueRel float64
	stats := make([]*gpu.Stats, 0, len(first))
	for _, r := range first {
		iters += float64(r.res.Iters)
		restarts += float64(r.res.Restarts)
		relres = max(relres, r.res.RelRes)
		trueRel = max(trueRel, r.trueRel)
		stats = append(stats, r.res.Stats)
	}
	n := float64(len(first))
	m.set("core.iters", iters/n)
	m.set("core.restarts", restarts/n)
	m.set("core.relres", relres)
	m.set("core.true_relres", trueRel)
	ledgerMetrics(m, stats)

	if len(all) == 0 {
		return
	}
	var solves []float64
	var solveSum, restartSum float64
	for _, r := range all {
		solves = append(solves, r.solveS)
		solveSum += r.solveS
		restartSum += float64(r.res.Restarts)
	}
	m.set("core.solve_s", median(solves))
	if restartSum > 0 {
		m.set("core.s_per_restart", solveSum/restartSum)
	}
}

var ledgerPhases = []string{core.PhaseSpMV, core.PhaseMPK, core.PhaseOrth, core.PhaseBOrth,
	core.PhaseTSQR, core.PhaseLSQ, core.PhaseVec}

// ledgerMetrics fills the gpu.* per-op metrics as means over the given
// solves' ledgers.
func ledgerMetrics(m *metricSet, stats []*gpu.Stats) {
	var total, kernels, rounds, msgs, h2d, d2h, flops, comm, dev, host float64
	phase := make(map[string]float64)
	for _, st := range stats {
		total += st.TotalTime()
		for _, name := range st.Phases() {
			ps := st.Phase(name)
			kernels += float64(ps.Kernels)
			rounds += float64(ps.Rounds)
			msgs += float64(ps.Messages)
			h2d += float64(ps.BytesH2D)
			d2h += float64(ps.BytesD2H)
			flops += ps.DeviceFlops
			comm += ps.CommTime
			dev += ps.DeviceTime
			host += ps.HostTime
		}
		for _, name := range ledgerPhases {
			phase[name] += st.Phase(name).Total()
		}
	}
	n := float64(len(stats))
	m.set("gpu.modeled_s_per_op", total/n)
	m.set("gpu.kernels_per_op", kernels/n)
	m.set("gpu.rounds_per_op", rounds/n)
	m.set("gpu.msgs_per_op", msgs/n)
	m.set("gpu.bytes_h2d_per_op", h2d/n)
	m.set("gpu.bytes_d2h_per_op", d2h/n)
	m.set("gpu.device_flops_per_op", flops/n)
	m.set("gpu.modeled_comm_s", comm/n)
	m.set("gpu.modeled_device_s", dev/n)
	m.set("gpu.modeled_host_s", host/n)
	for _, name := range ledgerPhases {
		m.set("gpu.modeled_s."+name, phase[name]/n)
	}
}
