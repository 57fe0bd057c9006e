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
)

func main() {
	var (
		poolSize   = flag.Int("pool", 2, "pooled device contexts for the scheduler replay")
		devices    = flag.Int("devices", 3, "simulated GPUs per context")
		jobs       = flag.Int("jobs", 8, "solve jobs pushed through the scheduler")
		seed       = flag.Int64("seed", 7, "seed for the transfer-fault streams")
		kill       = flag.String("kill", "0:1@0.5", "device death, ctx:dev@frac — frac is the fraction of the fault-free modeled solve time (empty disables)")
		xferProb   = flag.Float64("xferprob", 0.02, "per-transfer-round fault probability on every pooled context")
		maxXfer    = flag.Int("maxxfer", 0, "cap on injected transfer faults per context (0 = unlimited)")
		straggle   = flag.Float64("straggle", 0, "slowdown factor for device 0 of context 0 (0 disables)")
		matrix     = flag.String("matrix", "laplace3d", "generator matrix name")
		scale      = flag.Float64("scale", 1e-4, "generator scale")
		mFlag      = flag.Int("m", 20, "restart length")
		sFlag      = flag.Int("s", 5, "matrix-powers step")
		tol        = flag.Float64("tol", 1e-8, "convergence tolerance")
		repair     = flag.Bool("repair", true, "repair and readmit contexts evicted after a death")
		precFlag   = flag.String("precision", "", "precision mode for every scheduled solve: fp64, mixed, or adaptive (empty keeps fp64)")
		overlap    = flag.Bool("overlap", false, "schedule every solve through the asynchronous stream engine; faults fire on the stream clock and replays must stay bit-identical")
		benchJSON  = flag.String("benchjson", "", "write the degraded-mode solver bench here")
		metricsOut = flag.String("metricsout", "", "write the scheduler replay's Prometheus exposition here")
		profName   = flag.String("profile", "", "machine profile for every context (m2090, a100-pcie, h100-nvlink); empty keeps the paper's m2090")
		topoName   = flag.String("topology", "", "override the profile's interconnect topology (host-hub, pcie-switch, nvlink-ring, all-to-all)")

		clusterRun = flag.Bool("cluster", false, "cluster layer: federate -nodes in-process backends behind a router, kill the shard's whole first-choice node mid-solve, and require completion on a survivor plus a bit-identical replay")
		nodes      = flag.Int("nodes", 3, "in-process backends for -cluster")
		storm      = flag.Bool("storm", false, "retry-storm layer: replay the deterministic overload study (containment off vs on) and a circuit-breaker transition script on virtual time, asserting the containment shapes and bit-identical replays")
	)
	flag.Parse()
	prof, err := profile.FromFlags(*profName, *topoName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	if _, err := core.NormalizePrecision(*precFlag); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	if *storm {
		if err := runStorm(); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		return
	}
	if *clusterRun {
		if err := runCluster(*nodes, *devices, *seed, *matrix, *scale, *mFlag, *sFlag, *tol, prof, *precFlag); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*poolSize, *devices, *jobs, *seed, *kill, *xferProb, *maxXfer, *straggle,
		*matrix, *scale, *mFlag, *sFlag, *tol, *repair, *overlap, *benchJSON, *metricsOut, prof, *precFlag); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
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
func clusterSolve(n, devices int, seed int64, doomed string, killAt float64,
	matrix string, scale float64, m, s int, tol float64, prof *gpu.Profile,
	precision string) (clusterJob, error) {
	var locals []*cluster.LocalNode
	var backends []*cluster.Backend
	for i := 0; i < n; i++ {
		cfg := cluster.LocalNodeConfig{Name: fmt.Sprintf("node%d", i), Devices: devices, Profile: prof}
		if cfg.Name == doomed {
			plan := gpu.FaultPlan{Seed: seed}
			for d := 0; d < devices; d++ {
				plan.Deaths = append(plan.Deaths, gpu.DeviceDeath{Device: d, At: killAt})
			}
			cfg.FaultPlans = []gpu.FaultPlan{plan}
			cfg.MaxJobAttempts = 1 // retries would land on the same dead node
		}
		node := cluster.NewLocalNode(cfg)
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
		MaxHops:          n,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 10,
		Breaker:          cluster.BreakerConfig{Threshold: 5, Cooldown: 5},
		Now:              func() float64 { return 0 },
	})
	req := map[string]any{
		"matrix": map[string]any{"name": matrix, "scale": scale},
		"m":      m, "s": s, "tol": tol, "ortho": "CholQR", "wait": true,
	}
	if precision != "" {
		req["precision"] = precision
	}
	body, _ := json.Marshal(req)
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
func runCluster(n, devices int, seed int64, matrix string, scale float64,
	m, s int, tol float64, prof *gpu.Profile, precision string) error {
	if n < 2 {
		return fmt.Errorf("-cluster needs at least 2 nodes, got %d", n)
	}
	probe, err := clusterSolve(n, devices, seed, "", 0, matrix, scale, m, s, tol, prof, precision)
	if err != nil {
		return err
	}
	if probe.State != "done" || !probe.Converged || probe.Hops != 1 {
		return fmt.Errorf("probe solve on healthy federation: %+v", probe)
	}
	fmt.Printf("chaos cluster: probe solve on %d nodes: shard owner %s, %.6fs modeled, %d iters\n",
		n, probe.Backend, probe.ModeledSeconds, probe.Iters)

	killAt := 0.5 * probe.ModeledSeconds
	deg, err := clusterSolve(n, devices, seed, probe.Backend, killAt, matrix, scale, m, s, tol, prof, precision)
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

	deg2, err := clusterSolve(n, devices, seed, probe.Backend, killAt, matrix, scale, m, s, tol, prof, precision)
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
	})
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

// newCtx builds one simulated context on the selected machine profile
// (nil keeps the paper's M2090 host-hub machine).
func newCtx(devices int, prof *gpu.Profile) *gpu.Context {
	if prof != nil {
		return gpu.NewContextWithProfile(devices, *prof)
	}
	return gpu.NewContext(devices, gpu.M2090())
}

func rhsFor(n, seed int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + 0.01*float64((i*131+seed*977)%67)
	}
	return b
}

func run(poolSize, devices, jobs int, seed int64, kill string, xferProb float64,
	maxXfer int, straggle float64, matrix string, scale float64, m, s int,
	tol float64, repair, overlap bool, benchJSON, metricsOut string, prof *gpu.Profile,
	precision string) error {
	gen, err := matgen.ByName(matrix, scale)
	if err != nil {
		return err
	}
	opts := core.Options{M: m, S: s, Tol: tol, Ortho: "CholQR", Overlap: overlap, Precision: precision}

	var killCtx, killDev int
	var killFrac float64
	haveKill := kill != ""
	if haveKill {
		if _, err := fmt.Sscanf(kill, "%d:%d@%f", &killCtx, &killDev, &killFrac); err != nil {
			return fmt.Errorf("-kill %q: want ctx:dev@frac: %v", kill, err)
		}
		if killCtx < 0 || killCtx >= poolSize || killDev < 0 || killDev >= devices {
			return fmt.Errorf("-kill %q outside pool %d×%d", kill, poolSize, devices)
		}
	}

	// --- Solver layer: fault-free baseline, then a mid-solve death. ---
	solve := func(plan *gpu.FaultPlan) (*core.Result, *gpu.Context, error) {
		ctx := newCtx(devices, prof)
		if plan != nil {
			ctx.InjectFaults(*plan)
		}
		prob, err := core.NewProblem(ctx, gen.A, rhsFor(gen.A.Rows, 1), core.KWay, true)
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
	if overlap {
		cleanTime = cleanCtx.OverlappedTime()
	}
	fmt.Printf("chaos: fault-free %d-device solve: %.6fs modeled, %d iters, relres %.2e\n",
		devices, cleanTime, clean.Iters, clean.RelRes)

	var bench benchOut
	if haveKill {
		killAt := killFrac * cleanTime
		plan := gpu.FaultPlan{Seed: seed,
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
			Name: "chaos-degraded-mode", Matrix: matrix, Scale: scale,
			M: m, S: s, Tol: tol,
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
		if benchJSON != "" {
			data, err := json.MarshalIndent(bench, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(benchJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("chaos: bench written to %s\n", benchJSON)
		}
	}

	// --- Scheduler layer: jobs through a pool with armed fault plans. ---
	plans := make([]gpu.FaultPlan, poolSize)
	for i := range plans {
		plans[i].Seed = seed + int64(i)
		plans[i].TransferFaultProb = xferProb
		plans[i].MaxTransferFaults = maxXfer
	}
	if haveKill {
		plans[killCtx].Deaths = []gpu.DeviceDeath{{Device: killDev, At: killFrac * cleanTime}}
	}
	if straggle > 0 {
		plans[0].Stragglers = []gpu.Straggler{{Device: 0, Factor: straggle}}
	}
	reg := obs.NewRegistry()
	pool := sched.NewPoolWithConfig(sched.PoolConfig{
		Size: poolSize, Devices: devices, Model: gpu.M2090(), Profile: prof,
		FaultPlans: plans, Repair: repair,
	})
	sc := sched.New(sched.Config{Pool: pool, QueueDepth: jobs + 1, MaxBatch: 4, Registry: reg})
	sc.Start()

	spec := sched.Spec{Solver: "ca", Matrix: gen.A, Ordering: core.KWay, Balance: true,
		MatrixKey: matrix, Opts: opts}
	submitted := make([]*sched.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		js := spec
		js.B = rhsFor(gen.A.Rows, i)
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
		done, jobs, failed, snap.DevicesLost, snap.TransferFaults, snap.TransferRetries,
		snap.Requeues, snap.Repartitions, snap.Restores, snap.Evictions, snap.Readmissions)
	if done == 0 {
		return fmt.Errorf("no job survived the chaos plan")
	}
	if haveKill && snap.DevicesLost == 0 {
		return fmt.Errorf("kill plan armed but no device death observed")
	}

	if metricsOut != "" {
		f, err := os.Create(metricsOut)
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
		fmt.Printf("chaos: metrics written to %s\n", metricsOut)
	}
	fmt.Println("chaos: ok")
	return nil
}
