package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
	"cagmres/internal/sched"
)

// postErr posts a request and decodes the structured error body.
func postErr(t *testing.T, url string, req SolveRequest) (int, obs.ErrorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e obs.ErrorBody
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %q does not parse: %v", data, err)
	}
	return resp.StatusCode, e
}

// TestBadMatrixMarketIsStructured400 is the regression test for the
// crash-shaped input path: an unparsable MatrixMarket payload must come
// back as a 400 with the same structured error JSON the 429/503 paths
// use, never as a 500 or a panic.
func TestBadMatrixMarketIsStructured400(t *testing.T) {
	h := newHarness(t, 16)

	for name, mm := range map[string]string{
		"not matrix market": "this is not a matrix",
		"truncated header":  "%%MatrixMarket matrix coordinate",
		"garbage entries":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 3.0\n",
		"empty body":        "",
	} {
		req := SolveRequest{
			Matrix: MatrixSpec{MatrixMarket: mm},
			M:      20, S: 5, Tol: 1e-8, Ortho: "CholQR",
		}
		code, e := postErr(t, h.ts.URL, req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %+v)", name, code, e)
			continue
		}
		if e.Code != obs.CodeBadRequest {
			t.Errorf("%s: code %q, want %q", name, e.Code, obs.CodeBadRequest)
		}
		if e.Error == "" || !strings.HasPrefix(e.Error, "matrix: ") {
			t.Errorf("%s: error %q does not identify the matrix field", name, e.Error)
		}
	}
}

// TestUnknownSolverIsRejectedAtDecode: a solver name the scheduler could
// not dispatch must be a 400 at the door — not a queued, leased and
// prepared job that then fails with HTTP 200 and no code.
func TestUnknownSolverIsRejectedAtDecode(t *testing.T) {
	h := newHarness(t, 16)
	req := solveReq(testN(t), 0, true)
	req.Solver = "bicgstab"
	code, e := postErr(t, h.ts.URL, req)
	if code != http.StatusBadRequest || e.Code != obs.CodeBadRequest {
		t.Fatalf("status %d code %q, want 400 %q (body %+v)", code, e.Code, obs.CodeBadRequest, e)
	}
	if hz := getHealthz(t, h.ts.URL); hz.PreparedMisses != 0 || hz.Dispatched != 0 {
		t.Fatalf("rejected request reached the scheduler: %d preparations, %d dispatched", hz.PreparedMisses, hz.Dispatched)
	}
	req.Ortho = "CGS" // the one strategy both solvers accept
	for _, solver := range []string{"", "ca", "gmres"} {
		req.Solver = solver
		if code, job, _ := h.post(t, req); code != http.StatusOK || job.State != "done" {
			t.Fatalf("solver %q: status %d state %q", solver, code, job.State)
		}
	}
}

// TestErrorCodesAreConsistent pins the machine-readable code on each
// error family: bad input, unknown job, wrong method.
func TestErrorCodesAreConsistent(t *testing.T) {
	h := newHarness(t, 16)

	code, e := postErr(t, h.ts.URL, SolveRequest{Matrix: MatrixSpec{Name: "no-such"}})
	if code != http.StatusBadRequest || e.Code != obs.CodeBadRequest {
		t.Fatalf("unknown generator: status %d code %q", code, e.Code)
	}

	resp, err := http.Get(h.ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	var nf obs.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&nf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || nf.Code != obs.CodeNotFound {
		t.Fatalf("unknown job: status %d code %q", resp.StatusCode, nf.Code)
	}

	resp, err = http.Get(h.ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	var mna obs.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&mna); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || mna.Code != obs.CodeMethodNotAllowed {
		t.Fatalf("GET /solve: status %d code %q", resp.StatusCode, mna.Code)
	}
}

// TestHealthzReportsDegradedPool runs a solve on a pool whose only
// context loses a device mid-lease (no repair): the job must still
// converge and report its recovery in the job JSON, and /healthz must
// flip to degraded while staying OK — lost capacity is an operator
// signal, not an outage.
func TestHealthzReportsDegradedPool(t *testing.T) {
	reg := obs.NewRegistry()
	pool := sched.NewPool(sched.PoolConfig{
		Size: 1, Devices: 2,
		FaultPlans: []gpu.FaultPlan{{Deaths: []gpu.DeviceDeath{{Device: 1, At: 0}}}},
	})
	s := sched.New(sched.Config{Pool: pool, QueueDepth: 8, Registry: reg})
	s.Start()
	ts := httptest.NewServer(New(s, reg))
	defer ts.Close()
	h := &testHarness{ts: ts, sched: s, reg: reg}
	n := testN(t)

	code, job, _ := h.post(t, solveReq(n, 0, true))
	if code != http.StatusOK || !job.Converged {
		t.Fatalf("solve on dying pool: status %d, job %+v", code, job)
	}
	if job.Faults == nil || job.Faults.Repartitions < 1 || len(job.Faults.DevicesLost) != 1 {
		t.Fatalf("job JSON does not surface the recovery: %+v", job.Faults)
	}

	// Eviction happens on release, after the job finishes: poll.
	deadline := time.Now().Add(10 * time.Second)
	var hz Healthz
	for {
		hz = getHealthz(t, ts.URL)
		if hz.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never went degraded: %+v", hz)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !hz.OK || hz.PoolHealthy != 0 || hz.Evictions != 1 || hz.DevicesLost != 1 {
		t.Fatalf("degraded healthz: %+v", hz)
	}

	// Metrics must carry the fault families with live values.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.RequireFamilies(data, []string{
		"sched_faults_injected_total", "sched_transfer_retries_total",
		"sched_context_evictions_total", "sched_context_readmissions_total",
		"sched_job_requeues_total", "sched_repartitions_total",
		"sched_checkpoint_restores_total", "sched_lease_timeouts_total",
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `sched_faults_injected_total{kind="death"} 1`) {
		t.Fatalf("metrics missing injected-death count:\n%s", data)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSingularLeastSquaresDoesNotCrashNode: GMRES on A = diag(1,1,0)
// meets an exactly singular triangular factor in its small least-squares
// solve. The node answers 200 with converged false and then answers the
// next solve. (The back substitution panicked, and the panic took the
// whole process down.)
func TestSingularLeastSquaresDoesNotCrashNode(t *testing.T) {
	h := newHarness(t, 16)
	diag110 := MatrixSpec{MatrixMarket: "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 2 1\n"}
	code, job, _ := h.post(t, SolveRequest{Matrix: diag110, Solver: "gmres", M: 2, Ordering: "natural", Wait: true})
	if code != http.StatusOK || job.State != "done" || job.Converged {
		t.Errorf("GMRES on diag(1,1,0): HTTP %d state %q converged %t, want 200 done unconverged (%s)",
			code, job.State, job.Converged, job.Error)
	}
	t.Logf("GMRES on diag(1,1,0): relres %g after %d restarts", job.RelRes, job.Restarts)
	if code, job, _ := h.post(t, solveReq(testN(t), 1, true)); code != http.StatusOK || !job.Converged {
		t.Fatalf("solve after the singular body: HTTP %d %+v", code, job)
	}
}

// TestSingularCABodyIsTheClientsAnswer: CA-GMRES(2, 2) on diag(1,1,0)
// is a deterministic property of the input, so the node answers it as
// such. Plain CholQR cannot factor even one step from the residual e_3
// (Gram pivot 0): 422 numerical_breakdown, which the router passes
// through instead of retrying it on every shard. The default strategy
// (CGS) gets past the rank-deficient window at a halved step and, like
// GMRES on this body, answers 200 done without converging.
func TestSingularCABodyIsTheClientsAnswer(t *testing.T) {
	h := newHarness(t, 16)
	diag110 := MatrixSpec{MatrixMarket: "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 2 1\n"}
	for _, c := range []struct {
		ortho string
		code  int
		state string
		err   string
	}{
		{"CholQR", http.StatusUnprocessableEntity, "failed", codeNumericalBreakdown},
		{"", http.StatusOK, "done", ""},
	} {
		body, err := json.Marshal(SolveRequest{Matrix: diag110, Solver: "ca", M: 2, S: 2, Ortho: c.ortho, Ordering: "natural", Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(h.ts.URL+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var job JobJSON
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.code || job.State != c.state || job.Code != c.err {
			t.Errorf("ortho %q: HTTP %d state %q code %q (%s), want %d %q %q",
				c.ortho, resp.StatusCode, job.State, job.Code, job.Error, c.code, c.state, c.err)
		}
		t.Logf("ortho %q: converged %t relres %g after %d restarts", c.ortho, job.Converged, job.RelRes, job.Restarts)
	}
	if code, job, _ := h.post(t, solveReq(testN(t), 1, true)); code != http.StatusOK || !job.Converged {
		t.Fatalf("solve after the singular bodies: HTTP %d %+v", code, job)
	}
}
