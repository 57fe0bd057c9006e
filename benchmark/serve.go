package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cagmres/internal/cluster"
	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/sched"
	"cagmres/internal/server"
	"cagmres/internal/sparse"
)

// serveEnv is the in-process serving stack of serve-mixed: two nodes
// (pool 1 x 3 devices each) on loopback listeners, a router in front of
// them reaching the nodes over HTTP, and one keep-alive client per
// closed-loop caller.
type serveEnv struct {
	w         workload
	list      []request
	inlineMM  string
	nodes     []*cluster.LocalNode
	nodeSrv   []*httptest.Server
	router    *cluster.Router
	routerSrv *httptest.Server
	clients   []*http.Client

	// Learned while warming the keys: which backend owns a key, and how
	// long the key's first (cache-missing) request took.
	owner  map[int]string
	firstS map[int]float64
}

// serveOp is one POST /solve and what came back.
type serveOp struct {
	req       request
	seconds   float64
	reqBytes  int
	respBytes int
	job       cluster.RoutedJob
	index     int // position in the window's op sequence
	failure   string
}

func setupServe(w workload, seed int64, tr *tracer) (*serveEnv, error) {
	root := tr.start("setup", 0, 0, 0)
	defer tr.end(root)

	s := tr.start("request list", root, 0, 0)
	inline, err := matrixMarket(inlineMatrix())
	if err != nil {
		return nil, err
	}
	e := &serveEnv{w: w, inlineMM: inline, list: serveRequestList(seed, inline),
		owner: map[int]string{}, firstS: map[int]float64{}}
	tr.end(s)

	s = tr.start("start nodes and router", root, 0, 0)
	var backends []*cluster.Backend
	for i := 0; i < 2; i++ {
		node := cluster.NewLocalNode(cluster.LocalNodeConfig{Name: fmt.Sprintf("node%d", i), PoolSize: 1, Devices: devices})
		srv := httptest.NewServer(node.Server)
		e.nodes = append(e.nodes, node)
		e.nodeSrv = append(e.nodeSrv, srv)
		b, err := cluster.NewHTTPBackend(node.Name, srv.URL)
		if err != nil {
			e.close()
			return nil, err
		}
		backends = append(backends, b)
	}
	e.router = cluster.New(cluster.Config{Backends: backends})
	e.routerSrv = httptest.NewServer(e.router)
	for c := 0; c < serveClients; c++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	tr.end(s)

	// One warm-up request per key, so every matrix is generated (or
	// parsed) and cached on its shard before timing.
	for _, r := range e.list {
		if _, done := e.owner[r.Key]; done {
			continue
		}
		s = tr.start("warm-up POST /solve", root, 0, 0)
		op := e.post(e.clients[0], e.routerSrv.URL, r)
		tr.end(s)
		if op.failure != "" {
			e.close()
			return nil, fmt.Errorf("warm-up of key %d: %s", r.Key, op.failure)
		}
		e.owner[r.Key] = op.job.Backend
		e.firstS[r.Key] = op.seconds
	}
	return e, nil
}

// close stops the stack and waits for it: listeners closed, schedulers
// drained.
func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	if e.routerSrv != nil {
		e.routerSrv.Close()
	}
	for _, srv := range e.nodeSrv {
		srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range e.nodes {
		_ = n.Drain(ctx) // nothing is in flight; a timeout only means a slower exit
	}
}

// post sends one request and applies the checks that need no matrix.
func (e *serveEnv) post(client *http.Client, baseURL string, r request) serveOp {
	op := serveOp{req: r, reqBytes: len(r.Body)}
	t0 := time.Now()
	resp, err := client.Post(baseURL+"/solve", "application/json", bytes.NewReader(r.Body))
	if err != nil {
		op.failure = err.Error()
		return op
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	op.seconds = time.Since(t0).Seconds()
	op.respBytes = len(body)
	if err != nil {
		op.failure = err.Error()
		return op
	}
	if resp.StatusCode != http.StatusOK {
		op.failure = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return op
	}
	if err := json.Unmarshal(body, &op.job); err != nil {
		op.failure = "bad job body: " + err.Error()
		return op
	}
	if op.job.State != string(sched.StateDone) {
		op.failure = fmt.Sprintf("job state %q: %s", op.job.State, op.job.Error)
		return op
	}
	op.failure = checkResult(op.job.Converged, op.job.RelRes, -1)
	if op.failure == "" && r.IncludeX && len(op.job.X) == 0 {
		op.failure = "include_x request returned no solution"
	}
	return op
}

// runOps drives the closed loop in whole passes over the request list
// until both the duration and minOps are reached. The clients go in
// lock-step: each sends the next request of the list, and the next step
// starts when every reply of this one is in. A step thus starts from an
// idle stack and overlaps the same requests in every pass, so it can be
// timed like an op of a solve workload. urlOf picks the listener;
// clients is how many of the clients send.
func (e *serveEnv) runOps(d time.Duration, minOps int, tr *tracer, urlOf func(request) string, clients int) ([]serveOp, *serveWindow) {
	var ops []serveOp
	runtime.GC()
	win := &serveWindow{}
	win.before = snapshot()
	start := time.Now()
	for pass := 0; pass*len(e.list) < minOps || time.Since(start) < d; pass++ {
		for at := 0; at < len(e.list); at += clients {
			t0, c0 := time.Now(), cpuSeconds()
			ops = append(ops, e.runStep(pass*len(e.list)+at, clients, tr, urlOf)...)
			win.stepWall = append(win.stepWall, time.Since(t0).Seconds())
			win.stepCPU = append(win.stepCPU, cpuSeconds()-c0)
			win.stepAt = append(win.stepAt, at)
		}
	}
	win.after = snapshot()
	return ops, win
}

// runStep sends one request per client at once, ops first, first+1, ...
// of the window, and waits for every reply.
func (e *serveEnv) runStep(first, clients int, tr *tracer, urlOf func(request) string) []serveOp {
	n := min(clients, len(e.list)-first%len(e.list))
	ops := make([]serveOp, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(lane int, client *http.Client, i int) {
			defer wg.Done()
			r := e.list[i%len(e.list)]
			opTr := tr
			if !tracedOp(i, len(e.list)) {
				opTr = nil
			}
			id := opTr.start("op", 0, i+1, lane)
			post := opTr.start("POST /solve", id, i+1, lane)
			sent := opTr.since()
			op := e.post(client, urlOf(r), r)
			opTr.end(post)
			if op.failure == "" {
				// The server measured these inside the request;
				// place them back to back ending at the response.
				end := sent + time.Duration(op.seconds*float64(time.Second))
				service := time.Duration(op.job.ServiceSeconds * float64(time.Second))
				wait := time.Duration(op.job.WaitSeconds * float64(time.Second))
				opTr.add("sched service (from job JSON)", post, i+1, lane, end-service, end)
				opTr.add("sched queue wait (from job JSON)", post, i+1, lane, end-service-wait, end-service)
			}
			opTr.end(id)
			op.index = i
			ops[c] = op
		}(c+1, e.clients[c], first+c)
	}
	wg.Wait()
	return ops
}

func (e *serveEnv) viaRouter(request) string { return e.routerSrv.URL }

// direct sends a request straight to the node that owns its key.
func (e *serveEnv) direct(r request) string {
	for i, n := range e.nodes {
		if n.Name == e.owner[r.Key] {
			return e.nodeSrv[i].URL
		}
	}
	return e.nodeSrv[0].URL
}

// reference is the direct library call a served combo must agree with.
type reference struct {
	a   *sparse.CSR
	b   []float64
	res *core.Result
}

// verify applies the checks that need the matrices, after the timed
// window: the host-recomputed residual of every include_x response, the
// same iteration count for every request of a combo, and the same count
// as core.CAGMRES / core.GMRES called directly on the same (matrix, rhs
// seed, options). It marks failing ops and returns the references.
func (e *serveEnv) verify(ops []serveOp) (refs map[string]*reference, nondeterministic bool, extra []string) {
	refs = map[string]*reference{}
	matrices := map[int]*sparse.CSR{}
	for i := range ops {
		op := &ops[i]
		if op.failure != "" {
			continue
		}
		r := op.req
		ref := refs[r.combo()]
		if ref == nil {
			a := matrices[r.Key]
			if a == nil {
				if r.Inline {
					a = inlineMatrix()
				} else {
					mat, err := matgen.ByName("G3_circuit", serveScale(r.Key))
					if err != nil {
						extra = append(extra, err.Error())
						continue
					}
					a = mat.A
				}
				matrices[r.Key] = a
			}
			ref = &reference{a: a, b: normalVector(a.Rows, r.RHSSeed)}
			p, err := core.NewProblem(gpu.NewContext(devices, gpu.M2090()), a, ref.b, core.KWay, true)
			if err == nil {
				opts := core.Options{M: serveM, Tol: tol, MaxRestarts: maxRestarts, Ortho: "CGS"}
				if r.Solver == "ca" {
					opts.S, opts.Ortho = serveS, "CholQR"
					ref.res, err = core.CAGMRES(p, opts)
				} else {
					ref.res, err = core.GMRES(p, opts)
				}
			}
			if err != nil {
				extra = append(extra, fmt.Sprintf("reference solve %s: %v", r.combo(), err))
				continue
			}
			refs[r.combo()] = ref
			if op.job.Iters != ref.res.Iters {
				extra = append(extra, fmt.Sprintf("served %s took %d iterations, the direct library call %d",
					r.combo(), op.job.Iters, ref.res.Iters))
			}
		} else if op.job.Iters != ref.res.Iters {
			// The first op of the combo agreed with (or was reported
			// against) the reference, so this one differs from it.
			nondeterministic = true
		}
		if r.IncludeX {
			if rel := core.ResidualNorm(ref.a, ref.b, op.job.X); !(rel <= trueTol) {
				op.failure = fmt.Sprintf("host-recomputed residual %.3e > %g", rel, trueTol)
			}
			op.job.X = nil
		}
	}
	return refs, nondeterministic, extra
}

// serveWindow is a timed window of passes over the request list.
type serveWindow struct {
	window
	stepWall []float64 // wall seconds of each step
	stepCPU  []float64 // process CPU seconds of each step
	stepAt   []int     // list position of the step's first request
}

// settle fills the window's figures from the verified ops and returns
// the failures. A request's latency becomes the fastest seen at its
// list position. The steps run one after another, so the window's wall
// and CPU time are sums over the steps, each at the fastest seen at its
// list position.
func (w *serveWindow) settle(ops []serveOp, listLen int) []string {
	w.attempted = len(ops)
	var failures []string
	var seconds []float64
	var position []int
	for _, op := range ops {
		if op.failure != "" {
			w.failed++
			failures = append(failures, fmt.Sprintf("%s: %s", op.req.combo(), op.failure))
			continue
		}
		seconds = append(seconds, op.seconds)
		position = append(position, op.index%listLen)
	}
	w.raw, w.durations = seconds, fastestAt(seconds, position)
	w.wall = sum(fastestAt(w.stepWall, w.stepAt))
	w.cpu = sum(fastestAt(w.stepCPU, w.stepAt))
	return failures
}

// runServe is one benchmark run of serve-mixed.
func runServe(w workload, cfg runConfig) (*report, error) {
	rep := newReport(w, cfg)
	if cfg.Trace {
		return runServeTraced(w, cfg, rep)
	}
	var env *serveEnv
	var setups []float64
	for i := 0; i < w.SetupReps; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := setupServe(w, cfg.Seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	ops, win := env.runOps(cfg.duration(), w.MinOps, nil, env.viaRouter, serveClients)
	_, nondeterministic, extra := env.verify(ops)
	failures := win.settle(ops, len(env.list))
	win.endToEndMetrics(rep.metrics, fastest(setups), w.tailPct())
	rep.finish(&win.window, failures, nondeterministic, extra...)
	return rep, nil
}

func runServeTraced(w workload, cfg runConfig, rep *report) (*report, error) {
	tr := newTracer()
	env, err := setupServe(w, cfg.Seed, tr)
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	ops, win := env.runOps(cfg.duration()/2, 2*serveRequests, tr, env.viaRouter, serveClients)
	m.set("proc.peak_rss_mb", peakRSSMB())
	refs, nondeterministic, extra := env.verify(ops)
	failures := win.settle(ops, len(env.list))
	win.gcMetrics(m)

	// The same request list from one client, through the router and
	// straight to the owning nodes: with nothing else on the thread,
	// what the router hop adds, and what the node's HTTP surface adds
	// on top of the scheduler's own wait and service times.
	routedAlone, _ := env.runOps(0, serveRequests, nil, env.viaRouter, 1)
	directAlone, _ := env.runOps(0, serveRequests, nil, env.direct, 1)
	serveMetrics(m, env, ops, routedAlone, directAlone)
	// Ledger counts of a served solve are those of the direct library
	// call it was checked against: every request kind of the list, in
	// a fixed order, so that the means repeat exactly.
	seen := map[string]bool{}
	var combos []string
	for _, r := range env.list {
		if c := r.combo(); !seen[c] && refs[c] != nil {
			seen[c] = true
			combos = append(combos, c)
		}
	}
	sort.Strings(combos)
	var first []opResult
	for _, combo := range combos {
		ref := refs[combo]
		first = append(first, opResult{res: ref.res, trueRel: core.ResidualNorm(ref.a, ref.b, ref.res.X)})
	}
	solveMetrics(m, first, nil)

	if err := serveRungs(m, tr, env); err != nil {
		env.close()
		return nil, err
	}
	env.close()
	m.set("proc.goroutines_end", float64(runtime.NumGoroutine()))
	rep.finishTraced(tr, &win.window, failures, nondeterministic, extra...)
	return rep, nil
}

// serveMetrics fills the sched.*, server.*, cluster.* metrics that come
// from the responses and the stack's own counters: ops are those of the
// traced window, routedAlone and directAlone one pass each from a single
// client.
func serveMetrics(m *metricSet, e *serveEnv, ops, routedAlone, directAlone []serveOp) {
	var waits, services, reqB, respB []float64
	byIndex := map[int]float64{}
	perBackend := map[string]int{}
	for _, op := range ops {
		if op.failure != "" {
			continue
		}
		byIndex[op.index] = op.seconds
		waits = append(waits, op.job.WaitSeconds)
		services = append(services, op.job.ServiceSeconds)
		reqB = append(reqB, float64(op.reqBytes))
		respB = append(respB, float64(op.respBytes))
		perBackend[op.job.Backend]++
	}
	m.set("trace.overhead_ratio", traceOverhead(byIndex, serveRequests))
	m.set("sched.queue_wait_p50_s", median(waits))
	m.set("sched.queue_wait_tail_s", percentile(waits, float64(e.w.tailPct())))
	m.set("sched.service_p50_s", median(services))
	m.set("server.req_bytes_p50", median(reqB))
	m.set("server.resp_bytes_p50", median(respB))
	busiest := 0
	for _, n := range perBackend {
		busiest = max(busiest, n)
	}
	m.set("cluster.busiest_share", float64(busiest)/float64(len(waits)))

	// outside is what is left of a request's latency after the
	// scheduler's queue wait and service time: HTTP, JSON, matrix
	// lookup, and for a routed request the router hop. Subtracting per
	// request cancels the solve's own variation, which is far larger.
	outside := func(ops []serveOp, inlineOnly bool) (out []float64) {
		for _, op := range ops {
			if op.failure == "" && (op.req.Inline || !inlineOnly) {
				out = append(out, op.seconds-op.job.WaitSeconds-op.job.ServiceSeconds)
			}
		}
		return out
	}
	overhead := median(outside(directAlone, false))
	m.set("server.overhead_p50_s", overhead)
	m.set("server.inline_overhead_p50_s", median(outside(directAlone, true)))
	m.set("cluster.hop_overhead_p50_s", median(outside(routedAlone, false))-overhead)
	// The warm-up request of a key ran alone through the router, as the
	// key's requests of the single-client pass did with the matrix cached.
	perKey := map[int][]float64{}
	for _, op := range routedAlone {
		if op.failure == "" {
			perKey[op.req.Key] = append(perKey[op.req.Key], op.seconds)
		}
	}
	var misses []float64
	for k, first := range e.firstS {
		if k < serveKeys && len(perKey[k]) > 0 {
			misses = append(misses, first-median(perKey[k]))
		}
	}
	m.set("server.cache_miss_s", mean(misses))

	_, reroutes, rejects := e.router.Counts()
	res := e.router.ResilienceSnapshot()
	m.set("cluster.reroutes", float64(reroutes))
	m.set("cluster.rejects", float64(rejects))
	m.set("cluster.hedges", float64(res.Hedges))
	m.set("cluster.breaker_skips", float64(res.BreakerSkips))
}

// get fetches a URL with the first client and returns the body.
func (e *serveEnv) get(url string) ([]byte, error) {
	resp, err := e.clients[0].Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, err
}

// serveRungs times the serving layers one by one after the load, and
// the library layers at the shapes of the first generator key.
func serveRungs(m *metricSet, tr *tracer, e *serveEnv) error {
	root := tr.start("rungs serving", 0, 0, 0)
	node, nodeURL := e.nodes[0], e.nodeSrv[0].URL

	var gerr error
	var body []byte
	fetch := func(url string) func() {
		return func() {
			if b, err := e.get(url); err != nil {
				gerr = err
			} else {
				body = b
			}
		}
	}
	m.set("server.healthz_s", rung(tr, root, "GET /healthz", nil, fetch(nodeURL+"/healthz")))
	m.set("obs.scrape_s", rung(tr, root, "GET /metrics", nil, fetch(nodeURL+"/metrics")))
	m.set("obs.scrape_bytes", float64(len(body)))

	// Scheduler counters over both nodes, as /healthz reports them.
	var dispatched, leases, rejected, requeues, leaseTimeouts float64
	for _, srv := range e.nodeSrv {
		data, err := e.get(srv.URL + "/healthz")
		if err != nil {
			return err
		}
		var h server.Healthz
		if err := json.Unmarshal(data, &h); err != nil {
			return fmt.Errorf("healthz: %w", err)
		}
		dispatched += float64(h.Dispatched)
		leases += float64(h.Leases)
		rejected += float64(h.Rejected)
		requeues += float64(h.Requeues)
		leaseTimeouts += float64(h.LeaseTimeouts)
	}
	m.set("sched.batch_mean", dispatched/leases)
	m.set("sched.rejected", rejected)
	m.set("sched.requeues", requeues)
	m.set("sched.lease_timeouts", leaseTimeouts)

	// One job without HTTP: Scheduler.Submit until Done.
	mat, err := matgen.ByName("G3_circuit", serveScale(0))
	if err != nil {
		return err
	}
	b := normalVector(mat.A.Rows, 1)
	spec := sched.Spec{Matrix: mat.A, MatrixKey: "benchmark-submit", B: b, Solver: "ca",
		Ordering: core.KWay, Balance: true,
		Opts: core.Options{M: serveM, S: serveS, Tol: tol, MaxRestarts: maxRestarts, Ortho: "CholQR"}}
	var job *sched.Job
	m.set("sched.submit_p50_s", rung(tr, root, "sched.Scheduler.Submit", nil, func() {
		j, err := node.Sched.Submit(context.Background(), spec, 0, 0)
		if err != nil {
			gerr = err
			return
		}
		<-j.Done()
		job = j
	}))
	if gerr != nil {
		return gerr
	}
	if _, err := job.Result(); err != nil {
		return fmt.Errorf("direct Submit: %w", err)
	}
	m.set("obs.trace_export_s", rung(tr, root, "GET /jobs/{id}/trace.json", nil, fetch(nodeURL+"/jobs/"+job.ID+"/trace.json")))
	spans, err := e.get(nodeURL + "/jobs/" + job.ID + "/spans.jsonl")
	if err != nil {
		return err
	}
	m.set("obs.spans_per_job", float64(bytes.Count(spans, []byte("\n"))))
	tr.end(root)
	if gerr != nil {
		return gerr
	}

	mmParseRung(m, tr, e.inlineMM)
	// The library layers at the shapes of the first generator key, with
	// the options every "ca" request carries.
	solveS, err := solveRungs(m, tr, &solveEnv{
		w: workload{Matrix: "G3_circuit", Scale: serveScale(0), Ordering: core.KWay,
			Solver: "ca", M: serveM, S: serveS, Ortho: "CholQR"},
		a: mat.A, rhs: rhsSet(mat.A.Rows, 8, 1), ctx: gpu.NewContext(devices, gpu.M2090()),
	})
	m.set("core.solve_s", solveS)
	return err
}
