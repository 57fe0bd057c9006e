// Command chaos is the deterministic chaos harness: it replays a seeded
// fault plan — device deaths at virtual times, transient transfer
// faults, stragglers — against the self-healing solver stack and checks
// that every solve still reaches a terminal state. Because faults fire
// on the modeled device clock and the transfer-fault stream is seeded,
// a chaos run is a pure function of its flags: the same command line
// produces byte-identical fault schedules, recovery actions, and
// modeled times on every machine.
//
// Two layers are exercised:
//
//   - Solver layer (-benchjson): one CA-GMRES solve on -devices GPUs is
//     run fault-free, then re-run with one device killed halfway through
//     the fault-free modeled time. The degraded solve must re-partition
//     onto the survivors, resume from its restart-boundary checkpoint,
//     and converge to the same tolerance. Both runs (and a repeat of the
//     degraded run, which must be bit-identical) are recorded to the
//     bench JSON.
//
//   - Scheduler layer: -jobs solves are pushed through a device pool
//     with fault plans armed on its contexts; the run asserts every job
//     terminates and prints the fault/recovery tallies. -metricsout
//     writes the Prometheus exposition for obslint.
//
// Example (the make chaos-smoke configuration):
//
//	chaos -pool 2 -devices 3 -jobs 8 -kill 0:1@0.5 -xferprob 0.02 \
//	      -seed 7 -repair -benchjson chaos.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"time"

	"cagmres/internal/bench"
	"cagmres/internal/cluster"
	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/profile"
	"cagmres/internal/sched"
	"cagmres/internal/server"
)

// config is the harness's flags, bound straight into the configs they
// set: the solve options every layer runs, the scheduler replay's pool
// (whose -devices and -profile every layer uses), and what only the
// harness reads.
type config struct {
	opts                  core.Options
	pool                  sched.PoolConfig
	jobs, nodes           int
	seed                  int64
	kill                  string
	xferProb, straggle    float64
	maxXfer               int
	matrix                string
	scale                 float64
	benchJSON, metricsOut string
}

func main() {
	cfg := config{opts: core.Options{Ortho: "CholQR"}}
	flag.IntVar(&cfg.pool.Size, "pool", 2, "pooled device contexts for the scheduler replay")
	flag.IntVar(&cfg.pool.Devices, "devices", 3, "simulated GPUs per context")
	flag.IntVar(&cfg.jobs, "jobs", 8, "solve jobs pushed through the scheduler")
	flag.Int64Var(&cfg.seed, "seed", 7, "seed for the transfer-fault streams")
	flag.StringVar(&cfg.kill, "kill", "0:1@0.5", "device death, ctx:dev@frac — frac is the fraction of the fault-free modeled solve time (empty disables)")
	flag.Float64Var(&cfg.xferProb, "xferprob", 0.02, "per-transfer-round fault probability on every pooled context")
	flag.IntVar(&cfg.maxXfer, "maxxfer", 0, "cap on injected transfer faults per context (0 = unlimited)")
	flag.Float64Var(&cfg.straggle, "straggle", 0, "slowdown factor for device 0 of context 0 (0 disables)")
	flag.StringVar(&cfg.matrix, "matrix", "laplace3d", "generator matrix name")
	flag.Float64Var(&cfg.scale, "scale", 1e-4, "generator scale")
	flag.IntVar(&cfg.opts.M, "m", 20, "restart length")
	flag.IntVar(&cfg.opts.S, "s", 5, "matrix-powers step")
	flag.Float64Var(&cfg.opts.Tol, "tol", 1e-8, "convergence tolerance")
	flag.BoolVar(&cfg.pool.Repair, "repair", true, "repair and readmit contexts evicted after a death")
	flag.StringVar(&cfg.opts.Precision, "precision", "", "precision mode for every scheduled solve: fp64, mixed, or adaptive (empty keeps fp64)")
	flag.BoolVar(&cfg.opts.Overlap, "overlap", false, "schedule every solve through the asynchronous stream engine; faults fire on the stream clock and replays must stay bit-identical")
	flag.StringVar(&cfg.benchJSON, "benchjson", "", "write the degraded-mode solver bench here")
	flag.StringVar(&cfg.metricsOut, "metricsout", "", "write the scheduler replay's Prometheus exposition here")
	profName := flag.String("profile", "", "machine profile for every context (m2090, a100-pcie, h100-nvlink); empty keeps the paper's m2090")
	topoName := flag.String("topology", "", "override the profile's interconnect topology (host-hub, pcie-switch, nvlink-ring, all-to-all)")

	clusterRun := flag.Bool("cluster", false, "cluster layer: federate -nodes in-process backends behind a router, kill the shard's whole first-choice node mid-solve, and require completion on a survivor plus a bit-identical replay")
	flag.IntVar(&cfg.nodes, "nodes", 3, "in-process backends for -cluster")
	storm := flag.Bool("storm", false, "retry-storm layer: replay the deterministic overload study (containment off vs on) and a circuit-breaker transition script on virtual time, asserting the containment shapes and bit-identical replays")
	flag.Parse()

	err := cfg.check(*profName, *topoName)
	switch {
	case err != nil:
	case *storm:
		err = runStorm()
	case *clusterRun:
		err = runCluster(&cfg)
	default:
		err = run(&cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

// check finishes the configuration the flags bound: the machine profile,
// the counts, and the solve options — the layers solve with CA-GMRES.
func (cfg *config) check(profName, topoName string) (err error) {
	if cfg.pool.Profile, err = profile.FromFlags(profName, topoName); err != nil {
		return err
	}
	for _, c := range []struct {
		flag string
		n    int
	}{{"pool", cfg.pool.Size}, {"devices", cfg.pool.Devices}, {"jobs", cfg.jobs}} {
		if c.n < 1 {
			return fmt.Errorf("-%s %d: need at least 1", c.flag, c.n)
		}
	}
	_, err = core.Check("ca", cfg.opts, nil)
	return err
}

// clusterJob is the slice of a routed job's wire form the cluster layer
// compares across the degraded run and its replay.
type clusterJob struct {
	ID             string  `json:"id"`
	State          string  `json:"state"`
	Converged      bool    `json:"converged"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	Iters          int     `json:"iters"`
	RelRes         float64 `json:"relres"`
	Attempts       int     `json:"attempts"`
	Backend        string  `json:"backend"`
	Hops           int     `json:"hops"`
	Error          string  `json:"error"`
}

// clusterSolve drives one waited solve through a router built over
// fresh in-process nodes; doomed (if non-empty) gets a whole-node death
// plan — every device of its context dies at killAt virtual seconds.
func clusterSolve(cfg *config, doomed string, killAt float64) (clusterJob, error) {
	devices := cfg.pool.Devices
	var locals []*cluster.LocalNode
	var backends []*cluster.Backend
	for i := 0; i < cfg.nodes; i++ {
		ncfg := cluster.LocalNodeConfig{Name: fmt.Sprintf("node%d", i), Devices: devices, Profile: cfg.pool.Profile}
		if ncfg.Name == doomed {
			plan := gpu.FaultPlan{Seed: cfg.seed}
			for d := 0; d < devices; d++ {
				plan.Deaths = append(plan.Deaths, gpu.DeviceDeath{Device: d, At: killAt})
			}
			ncfg.FaultPlans = []gpu.FaultPlan{plan}
			ncfg.Sched.MaxJobAttempts = 1 // retries would land on the same dead node
		}
		node := cluster.NewLocalNode(ncfg)
		locals = append(locals, node)
		backends = append(backends, node.Backend())
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, node := range locals {
			_ = node.Drain(ctx)
		}
	}()
	// The containment layer rides along armed: the reroute off the dead
	// node draws a token from the retry budget and records a breaker
	// failure, and the replay below must still be bit-identical. The
	// frozen virtual clock keeps breaker cooldowns out of the replay
	// (one node death never reaches the open threshold anyway).
	router := cluster.New(cluster.Config{
		Backends:         backends,
		MaxHops:          cfg.nodes,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 10,
		Breaker:          cluster.BreakerConfig{Threshold: 5, Cooldown: 5},
		Now:              func() float64 { return 0 },
	})
	o := cfg.opts
	body, _ := json.Marshal(server.SolveRequest{ // plain fields always encode
		Matrix: server.MatrixSpec{Name: cfg.matrix, Scale: cfg.scale},
		M:      o.M, S: o.S, Tol: o.Tol, Ortho: o.Ortho, Precision: o.Precision, Wait: true,
	})
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, httptest.NewRequest("POST", "/solve", bytes.NewReader(body)))
	var job clusterJob
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		return job, fmt.Errorf("routed solve: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Code != 200 {
		return job, fmt.Errorf("routed solve: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return job, nil
}

// runCluster is the cluster chaos layer: a probe run on a healthy
// federation finds the shard's first-choice node and its fault-free
// modeled time, the degraded run kills that whole node (every device)
// halfway through the solve and must complete on a survivor with the
// burned attempt accounted, and a replay of the degraded run under the
// same seed must be bit-identical.
func runCluster(cfg *config) error {
	n, devices := cfg.nodes, cfg.pool.Devices
	if n < 2 {
		return fmt.Errorf("-cluster needs at least 2 nodes, got %d", n)
	}
	probe, err := clusterSolve(cfg, "", 0)
	if err != nil {
		return err
	}
	if probe.State != "done" || !probe.Converged || probe.Hops != 1 {
		return fmt.Errorf("probe solve on healthy federation: %+v", probe)
	}
	fmt.Printf("chaos cluster: probe solve on %d nodes: shard owner %s, %.6fs modeled, %d iters\n",
		n, probe.Backend, probe.ModeledSeconds, probe.Iters)

	killAt := 0.5 * probe.ModeledSeconds
	deg, err := clusterSolve(cfg, probe.Backend, killAt)
	if err != nil {
		return err
	}
	if deg.State != "done" || !deg.Converged {
		return fmt.Errorf("degraded routed solve did not converge: %+v", deg)
	}
	if deg.Backend == probe.Backend {
		return fmt.Errorf("job stayed on the dead node %s: %+v", probe.Backend, deg)
	}
	if deg.Hops < 2 {
		return fmt.Errorf("node death did not force a reroute: %+v", deg)
	}
	if deg.Attempts < 2 {
		return fmt.Errorf("attempt burned on the dead node lost from the accounting: %+v", deg)
	}
	fmt.Printf("chaos cluster: node %s killed @ %.6fs (all %d devices): job rerouted to %s, hops=%d attempts=%d, %.6fs modeled, relres %.2e\n",
		probe.Backend, killAt, devices, deg.Backend, deg.Hops, deg.Attempts, deg.ModeledSeconds, deg.RelRes)

	deg2, err := clusterSolve(cfg, probe.Backend, killAt)
	if err != nil {
		return fmt.Errorf("degraded replay: %w", err)
	}
	if deg2.ModeledSeconds != deg.ModeledSeconds || deg2.Iters != deg.Iters ||
		deg2.RelRes != deg.RelRes || deg2.Backend != deg.Backend ||
		deg2.Hops != deg.Hops || deg2.Attempts != deg.Attempts {
		return fmt.Errorf("degraded cluster replay diverged:\n  run 1: %+v\n  run 2: %+v", deg, deg2)
	}
	fmt.Printf("chaos cluster: degraded replay bit-identical (%.9fs modeled, %d iters, relres %.17g)\n",
		deg2.ModeledSeconds, deg2.Iters, deg2.RelRes)
	fmt.Println("chaos: ok")
	return nil
}

// runStorm is the retry-storm chaos layer. It replays the overload
// study — a three-node federation at 1-4x capacity with the containment
// layer off and on — twice, requiring bit-identical rows and the
// containment shapes: without containment, reroutes per offered job
// grow superlinearly with load; with containment, reroutes stay inside
// the retry-budget bound and goodput holds >= 80% of capacity at 4x
// offered load. It then drives a circuit breaker through a scripted
// failure/cooldown/probe sequence on a virtual clock, twice, and
// requires identical transition traces.
func runStorm() error {
	run := func(out *os.File) []bench.OverloadRow {
		cfg := bench.Config{Scale: 0.02}
		if out != nil {
			cfg.Out = out
		}
		return bench.FigOverload(cfg)
	}
	rows := run(os.Stdout)
	replay := run(nil)
	if !reflect.DeepEqual(rows, replay) {
		return fmt.Errorf("overload study replay diverged:\n  run 1: %+v\n  run 2: %+v", rows, replay)
	}
	fmt.Println("chaos storm: overload study replay bit-identical")

	off := map[float64]bench.OverloadRow{}
	on := map[float64]bench.OverloadRow{}
	for _, r := range rows {
		if r.Containment {
			on[r.Load] = r
		} else {
			off[r.Load] = r
		}
	}
	rate := func(r bench.OverloadRow) float64 { return float64(r.Reroutes) / float64(r.Offered) }
	prev := -1.0
	for _, load := range []float64{1, 2, 3, 4} {
		r := off[load]
		if r.Offered == 0 {
			return fmt.Errorf("overload study missing uncontained %gx row", load)
		}
		if got := rate(r); got < prev {
			return fmt.Errorf("uncontained reroutes/offered fell from %.2f to %.2f at %gx", prev, got, load)
		} else {
			prev = got
		}
	}
	if r1, r4 := rate(off[1]), rate(off[4]); r4 <= 4*r1+1e-9 && r4 < 1 {
		return fmt.Errorf("uncontained reroutes/offered did not grow superlinearly: %.2f at 1x, %.2f at 4x", r1, r4)
	}
	fmt.Printf("chaos storm: containment off: reroutes/offered %.2f -> %.2f -> %.2f -> %.2f across 1-4x (superlinear)\n",
		rate(off[1]), rate(off[2]), rate(off[3]), rate(off[4]))
	r4 := on[4]
	if r4.GoodputFrac < 0.8 {
		return fmt.Errorf("contained goodput at 4x offered load = %.1f%%, want >= 80%%", 100*r4.GoodputFrac)
	}
	if bound := 0.1*float64(r4.Served+r4.Late) + 10; float64(r4.Reroutes) > bound {
		return fmt.Errorf("contained reroutes at 4x (%d) exceed retry-budget bound %.1f", r4.Reroutes, bound)
	}
	fmt.Printf("chaos storm: containment on: goodput %.1f%% of capacity at 4x, %d reroutes (budget-bounded), %d shed\n",
		100*r4.GoodputFrac, r4.Reroutes, r4.Shed)

	a := breakerScript()
	b := breakerScript()
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("breaker transition replay diverged:\n  run 1: %v\n  run 2: %v", a, b)
	}
	want := []string{
		"closed", "closed", "open", // failures up to threshold
		"open",            // cooldown not yet elapsed: requests skipped
		"half-open:allow", // cooldown elapsed: exactly one probe admitted
		"half-open:skip",  // concurrent request skipped while probing
		"open",            // probe failed: re-open immediately
		"half-open:allow", // second cooldown, second probe
		"closed",          // probe succeeded: circuit closes
		"closed",          // healthy traffic flows again
	}
	if !reflect.DeepEqual(a, want) {
		return fmt.Errorf("breaker transition script:\n  got  %v\n  want %v", a, want)
	}
	fmt.Printf("chaos storm: breaker script replay bit-identical (%d transitions: closed -> open -> half-open -> open -> half-open -> closed)\n", len(a))
	fmt.Println("chaos: ok")
	return nil
}

// breakerScript drives one circuit breaker through a deterministic
// failure/cooldown/probe sequence on a virtual clock and returns the
// observed state trace.
func breakerScript() []string {
	clock := 0.0
	br := cluster.NewBreaker(cluster.BreakerConfig{
		Threshold: 3, Cooldown: 5, Now: func() float64 { return clock },
	}, obs.NewRegistry(), "script")
	var trace []string
	step := func(s string) { trace = append(trace, s) }

	br.Failure()
	step(br.State()) // 1 failure: still closed
	br.Failure()
	step(br.State()) // 2 failures: still closed
	br.Failure()
	step(br.State()) // threshold: open
	clock = 3
	if !br.Allow() {
		step(br.State()) // inside cooldown: skipped, still open
	}
	clock = 6
	if br.Allow() {
		step(br.State() + ":allow") // cooldown elapsed: probe admitted
	}
	if !br.Allow() {
		step(br.State() + ":skip") // one probe at a time
	}
	br.Failure()
	step(br.State()) // probe failed: re-open
	clock = 12
	if br.Allow() {
		step(br.State() + ":allow") // second probe
	}
	br.Success()
	step(br.State()) // probe succeeded: closed
	if br.Allow() {
		step(br.State()) // traffic flows
	}
	return trace
}

// solveSnap is one solve's record in the bench JSON.
type solveSnap struct {
	Devices        int     `json:"devices"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	Iters          int     `json:"iters"`
	Restarts       int     `json:"restarts"`
	RelRes         float64 `json:"relres"`
	Converged      bool    `json:"converged"`

	KillDevice         int     `json:"kill_device,omitempty"`
	KillAt             float64 `json:"kill_at_seconds,omitempty"`
	DevicesAfter       int     `json:"devices_after,omitempty"`
	Repartitions       int     `json:"repartitions,omitempty"`
	CheckpointRestores int     `json:"checkpoint_restores,omitempty"`
}

type benchOut struct {
	Name      string    `json:"name"`
	Matrix    string    `json:"matrix"`
	Scale     float64   `json:"scale"`
	M         int       `json:"m"`
	S         int       `json:"s"`
	Tol       float64   `json:"tol"`
	FaultFree solveSnap `json:"fault_free"`
	Degraded  solveSnap `json:"degraded"`
	Slowdown  float64   `json:"degraded_slowdown"`
	Identical bool      `json:"degraded_replay_identical"`
}

func run(cfg *config) error {
	poolSize, devices, opts := cfg.pool.Size, cfg.pool.Devices, cfg.opts
	gen, err := matgen.ByName(cfg.matrix, cfg.scale)
	if err != nil {
		return err
	}

	var killCtx, killDev int
	var killFrac float64
	haveKill := cfg.kill != ""
	if haveKill {
		if _, err := fmt.Sscanf(cfg.kill, "%d:%d@%f", &killCtx, &killDev, &killFrac); err != nil {
			return fmt.Errorf("-kill %q: want ctx:dev@frac: %v", cfg.kill, err)
		}
		if killCtx < 0 || killCtx >= poolSize || killDev < 0 || killDev >= devices {
			return fmt.Errorf("-kill %q outside pool %d×%d", cfg.kill, poolSize, devices)
		}
	}

	// --- Solver layer: fault-free baseline, then a mid-solve death. ---
	solve := func(plan *gpu.FaultPlan) (*core.Result, *gpu.Context, error) {
		ctx := gpu.NewContext(devices, cfg.pool.Profile)
		if plan != nil {
			ctx.InjectFaults(*plan)
		}
		prob, err := core.NewProblem(ctx, gen.A, matgen.RHS(gen.A.Rows, 1), core.KWay, true)
		if err != nil {
			return nil, nil, err
		}
		res, err := core.CAGMRES(prob, opts)
		return res, ctx, err
	}
	clean, cleanCtx, err := solve(nil)
	if err != nil {
		return fmt.Errorf("fault-free solve: %w", err)
	}
	if !clean.Converged {
		return fmt.Errorf("fault-free solve did not converge (relres %.2e)", clean.RelRes)
	}
	// The kill fraction is relative to the schedule the solve actually
	// runs: deaths fire on the stream clock under overlap, whose horizon
	// finishes earlier than the serialized ledger total — scaling the
	// fraction by the wrong clock would schedule the death after the
	// solve completes.
	cleanTime := clean.Stats.TotalTime()
	if opts.Overlap {
		cleanTime = cleanCtx.OverlappedTime()
	}
	fmt.Printf("chaos: fault-free %d-device solve: %.6fs modeled, %d iters, relres %.2e\n",
		devices, cleanTime, clean.Iters, clean.RelRes)

	var bench benchOut
	if haveKill {
		killAt := killFrac * cleanTime
		plan := gpu.FaultPlan{Seed: cfg.seed,
			Deaths: []gpu.DeviceDeath{{Device: killDev, At: killAt}}}
		deg, _, err := solve(&plan)
		if err != nil {
			return fmt.Errorf("degraded solve: %w", err)
		}
		if !deg.Converged {
			return fmt.Errorf("degraded solve did not converge (relres %.2e)", deg.RelRes)
		}
		if deg.Faults == nil || deg.Faults.Repartitions < 1 {
			return fmt.Errorf("degraded solve reported no repartition: %+v", deg.Faults)
		}
		// Replay: the virtual clock makes the degraded run reproducible.
		deg2, _, err := solve(&plan)
		if err != nil {
			return fmt.Errorf("degraded replay: %w", err)
		}
		identical := deg.Stats.TotalTime() == deg2.Stats.TotalTime() &&
			deg.Iters == deg2.Iters && deg.RelRes == deg2.RelRes
		if !identical {
			return fmt.Errorf("degraded replay diverged: %.9fs/%d vs %.9fs/%d",
				deg.Stats.TotalTime(), deg.Iters, deg2.Stats.TotalTime(), deg2.Iters)
		}
		fmt.Printf("chaos: degraded %d→%d-device solve (kill dev %d @ %.6fs): %.6fs modeled (%.2fx), %d iters, relres %.2e, repartitions=%d restores=%d\n",
			devices, devices-1, killDev, killAt, deg.Stats.TotalTime(),
			deg.Stats.TotalTime()/cleanTime, deg.Iters, deg.RelRes,
			deg.Faults.Repartitions, deg.Faults.CheckpointRestores)

		bench = benchOut{
			Name: "chaos-degraded-mode", Matrix: cfg.matrix, Scale: cfg.scale,
			M: opts.M, S: opts.S, Tol: opts.Tol,
			FaultFree: solveSnap{Devices: devices, ModeledSeconds: cleanTime,
				Iters: clean.Iters, Restarts: clean.Restarts,
				RelRes: clean.RelRes, Converged: true},
			Degraded: solveSnap{Devices: devices, ModeledSeconds: deg.Stats.TotalTime(),
				Iters: deg.Iters, Restarts: deg.Restarts,
				RelRes: deg.RelRes, Converged: true,
				KillDevice: killDev, KillAt: killAt, DevicesAfter: devices - 1,
				Repartitions:       deg.Faults.Repartitions,
				CheckpointRestores: deg.Faults.CheckpointRestores},
			Slowdown:  deg.Stats.TotalTime() / cleanTime,
			Identical: identical,
		}
		if cfg.benchJSON != "" {
			data, err := json.MarshalIndent(bench, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(cfg.benchJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("chaos: bench written to %s\n", cfg.benchJSON)
		}
	}

	// --- Scheduler layer: jobs through a pool with armed fault plans. ---
	pc := cfg.pool
	pc.FaultPlans = make([]gpu.FaultPlan, poolSize)
	for i := range pc.FaultPlans {
		pc.FaultPlans[i].Seed = cfg.seed + int64(i)
		pc.FaultPlans[i].TransferFaultProb = cfg.xferProb
		pc.FaultPlans[i].MaxTransferFaults = cfg.maxXfer
	}
	if haveKill {
		pc.FaultPlans[killCtx].Deaths = []gpu.DeviceDeath{{Device: killDev, At: killFrac * cleanTime}}
	}
	if cfg.straggle > 0 {
		pc.FaultPlans[0].Stragglers = []gpu.Straggler{{Device: 0, Factor: cfg.straggle}}
	}
	reg := obs.NewRegistry()
	sc := sched.New(sched.Config{Pool: sched.NewPool(pc), QueueDepth: cfg.jobs + 1, MaxBatch: 4, Registry: reg})
	sc.Start()

	spec := sched.Spec{Solver: "ca", Matrix: gen.A, Ordering: core.KWay, Balance: true,
		MatrixKey: cfg.matrix, Opts: opts}
	submitted := make([]*sched.Job, 0, cfg.jobs)
	for i := 0; i < cfg.jobs; i++ {
		js := spec
		js.B = matgen.RHS(gen.A.Rows, i)
		j, err := sc.Submit(context.Background(), js, i%3, 0)
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		submitted = append(submitted, j)
	}
	done, failed := 0, 0
	for _, j := range submitted {
		select {
		case <-j.Done():
		case <-time.After(2 * time.Minute):
			return fmt.Errorf("job %s never terminated (state %s)", j.ID, j.State())
		}
		switch j.State() {
		case sched.StateDone:
			done++
		case sched.StateFailed, sched.StateCanceled:
			failed++
		default:
			return fmt.Errorf("job %s in non-terminal state %s", j.ID, j.State())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sc.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	snap := sc.Snapshot()
	fmt.Printf("chaos: scheduler replay: %d/%d jobs done (%d failed); faults: deaths=%d transfers=%d retries=%d requeues=%d repartitions=%d restores=%d evictions=%d readmissions=%d\n",
		done, cfg.jobs, failed, snap.DevicesLost, snap.TransferFaults, snap.TransferRetries,
		snap.Requeues, snap.Repartitions, snap.Restores, snap.Evictions, snap.Readmissions)
	if done == 0 {
		return fmt.Errorf("no job survived the chaos plan")
	}
	if haveKill && snap.DevicesLost == 0 {
		return fmt.Errorf("kill plan armed but no device death observed")
	}

	if cfg.metricsOut != "" {
		f, err := os.Create(cfg.metricsOut)
		if err != nil {
			return err
		}
		if err := reg.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("chaos: metrics written to %s\n", cfg.metricsOut)
	}
	fmt.Println("chaos: ok")
	return nil
}
