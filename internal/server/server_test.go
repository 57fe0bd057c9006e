package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/sched"
	"cagmres/internal/sparse"
)

// testHarness is one running service: a 2-context pool behind the
// scheduler behind the HTTP mux, on an httptest listener.
type testHarness struct {
	ts    *httptest.Server
	sched *sched.Scheduler
	reg   *obs.Registry
}

func newHarness(t *testing.T, queueDepth int) *testHarness {
	t.Helper()
	reg := obs.NewRegistry()
	pool := sched.NewPool(sched.PoolConfig{Size: 2, Devices: 2})
	s := sched.New(sched.Config{Pool: pool, QueueDepth: queueDepth, Registry: reg})
	s.Start()
	h := &testHarness{ts: httptest.NewServer(New(s, reg)), sched: s, reg: reg}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		h.ts.Close()
	})
	return h
}

func (h *testHarness) post(t *testing.T, req SolveRequest) (int, JobJSON, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var job JobJSON
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &job); err != nil {
			t.Fatalf("bad response body %q: %v", data, err)
		}
	}
	return resp.StatusCode, job, resp.Header
}

// solveReq is the canonical test request: the small laplace3d generator
// with an explicit deterministic RHS.
func solveReq(n int, seed int, wait bool) SolveRequest {
	rhs, _ := json.Marshal(matgen.RHS(n, seed))
	return SolveRequest{
		Matrix: MatrixSpec{Name: "laplace3d", Scale: 1e-5},
		M:      20, S: 5, Tol: 1e-8, Ortho: "CholQR",
		RHS:      rhs,
		Wait:     wait,
		IncludeX: true,
	}
}

// testN resolves the row count of the test generator matrix.
func testN(t *testing.T) int {
	t.Helper()
	m, err := matgen.ByName("laplace3d", 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	return m.A.Rows
}

// TestConcurrentSolvesMatchDirect is the issue's acceptance test: the
// service answers concurrent solves through a 2-context pool with
// bit-identical results to calling the library directly.
func TestConcurrentSolvesMatchDirect(t *testing.T) {
	h := newHarness(t, 16)
	n := testN(t)

	const clients = 4
	answers := make([]JobJSON, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			code, job, _ := h.post(t, solveReq(n, c, true))
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", c, code)
				return
			}
			answers[c] = job
		}(c)
	}
	wg.Wait()

	// Direct library calls over a context of the same shape.
	m, err := matgen.ByName("laplace3d", 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		job := answers[c]
		if job.State != string(sched.StateDone) || !job.Converged {
			t.Fatalf("client %d: state=%s converged=%t", c, job.State, job.Converged)
		}
		ctx := gpu.NewContext(2, gpu.M2090())
		req := solveReq(n, c, true)
		var b []float64
		if err := json.Unmarshal(req.RHS, &b); err != nil {
			t.Fatal(err)
		}
		prob, err := core.NewProblem(ctx, m.A, b, core.KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CAGMRES(prob, core.Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"})
		if err != nil {
			t.Fatal(err)
		}
		if len(job.X) != len(res.X) {
			t.Fatalf("client %d: solution length %d, direct %d", c, len(job.X), len(res.X))
		}
		for i := range res.X {
			if job.X[i] != res.X[i] {
				t.Fatalf("client %d: x[%d] = %v over HTTP, %v direct", c, i, job.X[i], res.X[i])
			}
		}
		if job.ModeledSeconds <= 0 {
			t.Fatalf("client %d: no modeled time reported", c)
		}
	}
}

// TestBackpressureAndDrainStatus maps admission control to HTTP: a full
// queue answers 429 with a Retry-After header, a draining scheduler 503.
func TestBackpressureAndDrainStatus(t *testing.T) {
	reg := obs.NewRegistry()
	pool := sched.NewPool(sched.PoolConfig{Size: 1, Devices: 2})
	// Workers never started: submissions stay queued, so the depth-1
	// queue fills deterministically.
	s := sched.New(sched.Config{Pool: pool, QueueDepth: 1, Registry: reg})
	ts := httptest.NewServer(New(s, reg))
	defer ts.Close()
	h := &testHarness{ts: ts, sched: s, reg: reg}
	n := testN(t)

	code, job, _ := h.post(t, solveReq(n, 0, false))
	if code != http.StatusAccepted || job.ID == "" || job.State != string(sched.StateQueued) {
		t.Fatalf("first submit: status %d, job %+v", code, job)
	}

	body, _ := json.Marshal(solveReq(n, 1, false))
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	var e struct {
		Error             string  `json:"error"`
		RetryAfterSeconds float64 `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.RetryAfterSeconds <= 0 {
		t.Fatalf("429 body %s (err %v)", data, err)
	}

	// Drain cancels the queued orphan and flips /solve to 503 and
	// /healthz to not-ok.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, _ = h.post(t, solveReq(n, 2, false))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d", code)
	}
	hz := getHealthz(t, ts.URL)
	if hz.OK || !hz.Draining {
		t.Fatalf("healthz after drain: %+v", hz)
	}
}

func getHealthz(t *testing.T, base string) Healthz {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz Healthz
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	return hz
}

// TestDeadlineCanceledOverHTTP submits a hopeless solve with a short
// deadline and expects a canceled, best-so-far answer.
func TestDeadlineCanceledOverHTTP(t *testing.T) {
	h := newHarness(t, 16)
	n := testN(t)
	req := solveReq(n, 0, true)
	req.Tol = 1e-30
	req.MaxRestarts = 1 << 20
	req.DeadlineMS = 50
	code, job, _ := h.post(t, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if job.State != string(sched.StateCanceled) || !job.Canceled || job.Converged {
		t.Fatalf("deadline job ended %+v", job)
	}
}

// TestJobsEndpoint polls an async submission to completion and checks
// the 404 path.
func TestJobsEndpoint(t *testing.T) {
	h := newHarness(t, 16)
	n := testN(t)
	code, job, _ := h.post(t, solveReq(n, 3, false))
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(h.ts.URL + "/jobs/" + job.ID + "?include_x=true")
		if err != nil {
			t.Fatal(err)
		}
		var cur JobJSON
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == string(sched.StateDone) {
			if !cur.Converged || len(cur.X) != n {
				t.Fatalf("finished job %+v (len(x)=%d)", cur, len(cur.X))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(h.ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
}

// TestMatrixMarketBody solves a system shipped inline as MatrixMarket
// text instead of a generator name.
func TestMatrixMarketBody(t *testing.T) {
	h := newHarness(t, 16)
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, matgen.Laplace3D(4, 4, 4, 0.2)); err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{
		Matrix: MatrixSpec{MatrixMarket: mm.String()},
		M:      20, S: 5, Tol: 1e-8, Ortho: "CholQR",
		Wait: true,
	}
	code, job, _ := h.post(t, req)
	if code != http.StatusOK || job.State != string(sched.StateDone) || !job.Converged {
		t.Fatalf("MatrixMarket solve: status %d, job %+v", code, job)
	}
}

// TestBadRequests exercises the 400/405 paths.
func TestBadRequests(t *testing.T) {
	h := newHarness(t, 16)
	n := testN(t)

	cases := []struct {
		name string
		mut  func(*SolveRequest)
	}{
		{"unknown matrix", func(r *SolveRequest) { r.Matrix = MatrixSpec{Name: "no-such"} }},
		{"empty matrix spec", func(r *SolveRequest) { r.Matrix = MatrixSpec{} }},
		{"wrong rhs length", func(r *SolveRequest) { r.RHS = json.RawMessage(`[1,2,3]`) }},
		{"bad rhs kind", func(r *SolveRequest) { r.RHS = json.RawMessage(`"zeros"`) }},
		{"bad ordering", func(r *SolveRequest) { r.Ordering = "sorted" }},
	}
	for _, tc := range cases {
		req := solveReq(n, 0, false)
		tc.mut(&req)
		code, _, _ := h.post(t, req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	resp, err := http.Get(h.ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status %d", resp.StatusCode)
	}
}

// TestMetricsSurface checks that the obs endpoints are mounted next to
// the API, that a served workload produces lint-clean metrics with every
// scheduler family present, and that /healthz and /metrics agree on every
// count — after a clean run and after one that exercised every rejection
// and fault-recovery path (the healthzSeries table).
func TestMetricsSurface(t *testing.T) {
	h := newHarness(t, 16)
	n := testN(t)
	for c := 0; c < 3; c++ {
		if code, _, _ := h.post(t, solveReq(n, c, true)); code != http.StatusOK {
			t.Fatalf("solve %d: status %d", c, code)
		}
	}
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(data); err != nil {
		t.Fatalf("metrics do not lint: %v", err)
	}
	families := []string{
		"sched_queue_depth", "sched_pool_in_use", "sched_pool_size", "sched_pool_workspace_bytes",
		"sched_queue_wait_seconds", "sched_service_seconds", "sched_batch_jobs",
		"sched_rejections_total", "sched_leases_total", "sched_lease_seconds_total",
		"sched_jobs_total", "sched_prepared_problems_total",
	}
	if err := obs.RequireFamilies(data, families); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `sched_jobs_total{state="done"} 3`) {
		t.Fatalf("metrics missing done-jobs counter:\n%s", data)
	}
	hz := getHealthz(t, h.ts.URL)
	if !hz.OK || hz.PoolSize != 2 || hz.Dispatched < 3 {
		t.Fatalf("healthz %+v", hz)
	}
	// Every attempt has given its workspace back: what the contexts keep
	// of it is on display.
	if hz.PoolWorkspaceBytes <= 0 {
		t.Fatalf("healthz pool_workspace_bytes = %d after three solves", hz.PoolWorkspaceBytes)
	}
	// Three solves of one matrix prepare it once; /healthz reads the very
	// series /metrics exports.
	if hz.PreparedMisses != 1 || hz.PreparedHits != 2 || hz.PreparedEvictions != 0 {
		t.Fatalf("healthz prepared hit/miss/evict = %d/%d/%d, want 2/1/0",
			hz.PreparedHits, hz.PreparedMisses, hz.PreparedEvictions)
	}
	for _, line := range []string{
		`sched_prepared_problems_total{result="hit"} 2`,
		`sched_prepared_problems_total{result="miss"} 1`,
		`sched_prepared_problems_total{result="evict"} 0`,
	} {
		if !strings.Contains(string(data), line) {
			t.Fatalf("metrics lack %q", line)
		}
	}
	assertHealthzMatchesMetrics(t, h.ts.URL)

	faulted, _ := containmentRun(t)
	counts := assertHealthzMatchesMetrics(t, faulted.ts.URL)
	for _, key := range []string{"rejected", "leases", "evictions", "readmissions", "devices_lost",
		"transfer_faults", "transfer_retries", "requeues", "lease_timeouts", "repartitions",
		"shed_brownout", "shed_deadline_infeasible", "shed_deadline_expired", "brownout_level",
		"prepared_hits", "prepared_misses", "prepared_evictions"} {
		if counts[key] < 1 {
			t.Errorf("the containment run left /healthz %s at %v, want it exercised", key, counts[key])
		}
	}
}

// TestSharedMatrixCache asserts that two requests naming the same
// generator share one cached CSR, which is what lets the scheduler
// batch them across HTTP submissions.
func TestSharedMatrixCache(t *testing.T) {
	reg := obs.NewRegistry()
	pool := sched.NewPool(sched.PoolConfig{Size: 1, Devices: 2})
	s := sched.New(sched.Config{Pool: pool, QueueDepth: 16, MaxBatch: 8, Registry: reg})
	ts := httptest.NewServer(New(s, reg))
	defer ts.Close()
	h := &testHarness{ts: ts, sched: s, reg: reg}
	n := testN(t)

	// Queue 3 compatible jobs before starting the workers: one lease
	// must serve all three.
	var ids []string
	for c := 0; c < 3; c++ {
		code, job, _ := h.post(t, solveReq(n, c, false))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", c, code)
		}
		ids = append(ids, job.ID)
	}
	s.Start()
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s did not finish", id)
		}
		if j.State() != sched.StateDone {
			t.Fatalf("job %s ended %s", id, j.State())
		}
	}
	snap := s.Snapshot()
	if snap.Leases != 1 || snap.Batched != 3 {
		t.Fatalf("3 same-spec HTTP jobs used %d leases (batched %d), want 1 lease",
			snap.Leases, snap.Batched)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerDrainLeavesNoGoroutines runs a full service lifecycle and
// verifies nothing leaks.
func TestServerDrainLeavesNoGoroutines(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	pool := sched.NewPool(sched.PoolConfig{Size: 2, Devices: 2})
	s := sched.New(sched.Config{Pool: pool, QueueDepth: 16, Registry: reg})
	s.Start()
	ts := httptest.NewServer(New(s, reg))
	h := &testHarness{ts: ts, sched: s, reg: reg}
	n := testN(t)
	for c := 0; c < 4; c++ {
		if code, _, _ := h.post(t, solveReq(n, c, true)); code != http.StatusOK {
			t.Fatalf("solve %d: status %d", c, code)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across server lifecycle: %d before, %d after",
		before, runtime.NumGoroutine())
}

// TestProfileOverHTTP drives the per-request machine-profile selection
// end to end: a profiled solve — a faster machine, or the two-tier
// interconnect over a slow fabric — returns the same iterate as the
// pool's default machine (profiles reorder time, never arithmetic) with
// a lower or higher modeled cost, a bad profile is a 400, the pool's default is
// restored for the next lease, and /healthz names the configured
// machine.
func TestProfileOverHTTP(t *testing.T) {
	h := newHarness(t, 16)
	n := testN(t)

	base := solveReq(n, 3, true)
	code, def, _ := h.post(t, base)
	if code != http.StatusOK || !def.Converged {
		t.Fatalf("default solve: status %d, job %+v", code, def)
	}

	for _, c := range []struct {
		spec, want string
	}{
		{`{"base": "h100-nvlink"}`, "faster"},
		// The two-tier interconnect: each device its own node, joined by
		// 25G Ethernet.
		{`{"devices_per_node":1,"fabric":"ethernet-25g"}`, "slower"},
	} {
		prof := base
		prof.Profile = json.RawMessage(c.spec)
		code, got, _ := h.post(t, prof)
		if code != http.StatusOK || !got.Converged {
			t.Fatalf("%s solve: status %d, job %+v", c.spec, code, got)
		}
		if len(got.X) != len(def.X) {
			t.Fatalf("%s: iterate lengths diverged: %d vs %d", c.spec, len(got.X), len(def.X))
		}
		for i := range def.X {
			if def.X[i] != got.X[i] {
				t.Fatalf("%s: x[%d] diverged across profiles: %x vs %x", c.spec, i, def.X[i], got.X[i])
			}
		}
		if faster := got.ModeledSeconds < def.ModeledSeconds; faster != (c.want == "faster") {
			t.Fatalf("%s not %s than m2090: %g vs %g", c.spec, c.want, got.ModeledSeconds, def.ModeledSeconds)
		}

		// The per-request profile must not leak into the next lease.
		code, again, _ := h.post(t, base)
		if code != http.StatusOK || again.ModeledSeconds != def.ModeledSeconds {
			t.Fatalf("after %s: default profile not restored: status %d, modeled %g want %g",
				c.spec, code, again.ModeledSeconds, def.ModeledSeconds)
		}
	}

	bad := base
	bad.Profile = json.RawMessage(`{"base": "k20"}`)
	if code, _, _ := h.post(t, bad); code != http.StatusBadRequest {
		t.Fatalf("unknown profile base: status %d, want 400", code)
	}

	resp, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz Healthz
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Profile != "m2090" || hz.Topology != "host-hub" {
		t.Fatalf("healthz machine = %q/%q, want m2090/host-hub", hz.Profile, hz.Topology)
	}
}

// paddedBody renders req as JSON behind enough leading whitespace to
// make the body exactly size bytes: the decoder has to read all of it.
func paddedBody(t *testing.T, req SolveRequest, size int) []byte {
	t.Helper()
	doc, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return append(bytes.Repeat([]byte(" "), size-len(doc)), doc...)
}

// TestSolveBodyLimit: a body one byte over MaxBodyBytes is refused with
// a structured 413 before anything is built from it; a body exactly at
// the limit still decodes and solves.
func TestSolveBodyLimit(t *testing.T) {
	h := newHarness(t, 16)
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
		return rec
	}
	req := solveReq(testN(t), 0, true)

	rec := post(paddedBody(t, req, MaxBodyBytes+1))
	rej := decodeRejection(t, rec.Code, rec.Header(), rec.Body.Bytes())
	if rec.Code != http.StatusRequestEntityTooLarge || rej.body.Code != obs.CodeRequestTooLarge || rej.hinted || rej.retryAfter != "" {
		t.Fatalf("oversized body: HTTP %d %+v, want 413 %s without a retry hint", rec.Code, rej, obs.CodeRequestTooLarge)
	}

	rec = post(paddedBody(t, req, MaxBodyBytes))
	var job JobJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || rec.Code != http.StatusOK || !job.Converged {
		t.Fatalf("body at the limit: HTTP %d, job %+v (%v)", rec.Code, job, err)
	}
}
