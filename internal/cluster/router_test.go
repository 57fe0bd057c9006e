package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
	"cagmres/internal/sched"
	"cagmres/internal/server"
)

// solveBody builds a waited tiny-solve request body.
func solveBody(t *testing.T, spec server.MatrixSpec) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"matrix": spec,
		"wait":   true,
		"m":      20,
		"s":      4,
		"tol":    1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func tinySpec() server.MatrixSpec {
	return server.MatrixSpec{Name: "laplace3d", Scale: 1e-5}
}

// post sends a solve through the router and decodes the response.
func post(t *testing.T, h http.Handler, body []byte) (int, RoutedJob, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var job RoutedJob
	_ = json.Unmarshal(rec.Body.Bytes(), &job)
	return rec.Code, job, rec.Result().Header
}

func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// newTestCluster builds a router over n in-process nodes named
// node0..node{n-1}, each 1 pooled context × 2 devices.
func newTestCluster(t *testing.T, n int) (*Router, []*LocalNode) {
	t.Helper()
	nodes := make([]*LocalNode, n)
	backends := make([]*Backend, n)
	for i := range nodes {
		nodes[i] = NewLocalNode(LocalNodeConfig{Name: fmt.Sprintf("node%d", i), Devices: 2})
		backends[i] = nodes[i].Backend()
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, nd := range nodes {
			_ = nd.Drain(ctx)
		}
	})
	return New(Config{Backends: backends, MaxHops: n}), nodes
}

func TestRouterSolveAndJobLookup(t *testing.T) {
	r, _ := newTestCluster(t, 3)
	code, job, _ := post(t, r, solveBody(t, tinySpec()))
	if code != http.StatusOK {
		t.Fatalf("solve: HTTP %d, job %+v", code, job)
	}
	if job.State != "done" || !job.Converged {
		t.Fatalf("job did not converge: %+v", job)
	}
	if job.Backend == "" || !strings.HasPrefix(job.ID, job.Backend+"/") {
		t.Fatalf("job id %q not qualified with backend %q", job.ID, job.Backend)
	}
	if job.Hops != 1 {
		t.Errorf("healthy cluster took %d hops, want 1", job.Hops)
	}

	// The qualified id resolves through the router.
	code, body := get(t, r, "/jobs/"+job.ID)
	if code != http.StatusOK {
		t.Fatalf("job lookup: HTTP %d: %s", code, body)
	}
	var got RoutedJob
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != job.ID || got.State != "done" {
		t.Errorf("lookup returned %+v, want id %s done", got, job.ID)
	}

	// Sub-resources pass through.
	code, body = get(t, r, "/jobs/"+job.ID+"/trace.json")
	if code != http.StatusOK || !bytes.Contains(body, []byte("traceEvents")) {
		t.Errorf("trace passthrough: HTTP %d, body %.80s", code, body)
	}
}

// TestRouterShardAffinity: the same matrix key always routes to the
// same backend; distinct keys spread across the membership.
func TestRouterShardAffinity(t *testing.T) {
	r, _ := newTestCluster(t, 3)
	spec := tinySpec()
	_, first, _ := post(t, r, solveBody(t, spec))
	for i := 0; i < 3; i++ {
		_, again, _ := post(t, r, solveBody(t, spec))
		if again.Backend != first.Backend {
			t.Fatalf("same key moved backends: %s then %s", first.Backend, again.Backend)
		}
	}
	seen := map[string]bool{}
	for scale := 1; scale <= 8; scale++ {
		key, _ := ShardKey(server.MatrixSpec{Name: "laplace3d", Scale: float64(scale) * 1e-5})
		seen[rank(r.backends, key, nil)[0].Name()] = true
	}
	if len(seen) < 2 {
		t.Errorf("8 distinct keys all ranked onto one backend: %v", seen)
	}
}

// TestRouterForwardOnOverload: a 429 from the first-choice backend
// forwards to the next candidate instead of rejecting the client.
func TestRouterForwardOnOverload(t *testing.T) {
	overloaded := NewLocalBackend("full", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"code":"queue_full","error":"queue full"}`))
	}))
	node := NewLocalNode(LocalNodeConfig{Name: "spare", Devices: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = node.Drain(ctx)
	})
	// Pin the shard to the overloaded backend so the reroute is forced.
	key, _ := ShardKey(tinySpec())
	r := New(Config{
		Backends: []*Backend{overloaded, node.Backend()},
		MaxHops:  2,
		ShardMap: &ShardMap{Assign: map[string]string{key: "full"}},
	})
	code, job, _ := post(t, r, solveBody(t, tinySpec()))
	if code != http.StatusOK || job.Backend != "spare" {
		t.Fatalf("overload forward: HTTP %d backend %q (%+v)", code, job.Backend, job)
	}
	if job.Hops != 2 {
		t.Errorf("hops = %d, want 2", job.Hops)
	}
	if _, reroutes, _ := r.Counts(); reroutes != 1 {
		t.Errorf("reroutes = %d, want 1", reroutes)
	}
}

// TestRouterNodeDeathReroute is the federation healing path: the
// first-choice backend's simulated node dies mid-solve (every device,
// no repair), its waited job comes back failed, and the router re-routes
// to a survivor, preserving the attempt accounting.
func TestRouterNodeDeathReroute(t *testing.T) {
	doomed := NewLocalNode(LocalNodeConfig{
		Name: "doomed", Devices: 2, Sched: sched.Config{MaxJobAttempts: 1},
		FaultPlans: []gpu.FaultPlan{{Seed: 3, Deaths: []gpu.DeviceDeath{
			{Device: 0, At: 1e-9}, {Device: 1, At: 1e-9},
		}}},
	})
	healthy := NewLocalNode(LocalNodeConfig{Name: "healthy", Devices: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = doomed.Drain(ctx)
		_ = healthy.Drain(ctx)
	})
	key, _ := ShardKey(tinySpec())
	r := New(Config{
		Backends: []*Backend{doomed.Backend(), healthy.Backend()},
		MaxHops:  2,
		ShardMap: &ShardMap{Assign: map[string]string{key: "doomed"}},
	})
	code, job, _ := post(t, r, solveBody(t, tinySpec()))
	if code != http.StatusOK {
		t.Fatalf("solve after node death: HTTP %d (%+v)", code, job)
	}
	if job.Backend != "healthy" || !job.Converged {
		t.Fatalf("job should converge on the survivor: %+v", job)
	}
	if job.Attempts < 2 {
		t.Errorf("attempt accounting lost: attempts=%d, want >= 2 (one burned on the dead node)", job.Attempts)
	}
	if job.Hops != 2 {
		t.Errorf("hops = %d, want 2", job.Hops)
	}
}

// TestRouterMidSolveNodeDeathReplay: a probe solve on a healthy
// three-node federation names the shard owner and its modeled time; every
// device of that owner then dies halfway through the solve. With the
// containment layer armed the job must converge on a survivor with the
// burned attempt and the reroute accounted, and a replay on fresh nodes
// must agree exactly.
func TestRouterMidSolveNodeDeathReplay(t *testing.T) {
	solve := func(doomed string, killAt float64) RoutedJob {
		t.Helper()
		nodes := make([]*LocalNode, 3)
		backends := make([]*Backend, len(nodes))
		for i := range nodes {
			cfg := LocalNodeConfig{Name: fmt.Sprintf("node%d", i), Devices: 2}
			if cfg.Name == doomed {
				cfg.Sched.MaxJobAttempts = 1 // a retry would land on the same dead node
				cfg.FaultPlans = []gpu.FaultPlan{{Seed: 7, Deaths: []gpu.DeviceDeath{
					{Device: 0, At: killAt}, {Device: 1, At: killAt},
				}}}
			}
			nodes[i] = NewLocalNode(cfg)
			backends[i] = nodes[i].Backend()
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, nd := range nodes {
				_ = nd.Drain(ctx)
			}
		}()
		r := New(Config{
			Backends:         backends,
			MaxHops:          len(nodes),
			RetryBudgetRatio: 0.1,
			RetryBudgetBurst: 10,
			Breaker:          BreakerConfig{Threshold: 5, Cooldown: 5},
			Clock:            newFakeClock(),
		})
		code, job, _ := post(t, r, solveBody(t, tinySpec()))
		if code != http.StatusOK || job.State != "done" || !job.Converged {
			t.Fatalf("doomed %q: HTTP %d, job %+v", doomed, code, job)
		}
		return job
	}
	probe := solve("", 0)
	if probe.Hops != 1 {
		t.Fatalf("probe on a healthy federation took %d hops", probe.Hops)
	}
	deg := solve(probe.Backend, 0.5*probe.ModeledSeconds)
	if deg.Backend == probe.Backend || deg.Hops < 2 || deg.Attempts < 2 {
		t.Fatalf("owner %s died mid-solve, yet backend %s hops %d attempts %d",
			probe.Backend, deg.Backend, deg.Hops, deg.Attempts)
	}
	replay := solve(probe.Backend, 0.5*probe.ModeledSeconds)
	if replay.ModeledSeconds != deg.ModeledSeconds || replay.Iters != deg.Iters ||
		replay.RelRes != deg.RelRes || replay.Backend != deg.Backend ||
		replay.Hops != deg.Hops || replay.Attempts != deg.Attempts {
		t.Errorf("degraded replay diverged:\n  run 1: %+v\n  run 2: %+v", deg, replay)
	}
}

// TestRouterErrorPaths is the table-driven rejection test: every router
// rejection must be an obs.ErrorBody and nothing more — code and error,
// never a retry hint in the body (retry_budget_exhausted keeps its
// Retry-After header).
func TestRouterErrorPaths(t *testing.T) {
	live := NewLocalNode(LocalNodeConfig{Name: "live", Devices: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = live.Drain(ctx)
	})
	deadA := NewLocalBackend("dead-a", http.NotFoundHandler())
	deadA.Kill()
	deadB := NewLocalBackend("dead-b", http.NotFoundHandler())
	deadB.Kill()
	deadC := NewLocalBackend("dead-c", http.NotFoundHandler())
	deadC.Kill()
	shedding := func(name string) *Backend {
		return NewLocalBackend(name, statusHandler(http.StatusTooManyRequests, "queue_full"))
	}

	cases := []struct {
		name     string
		router   *Router
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"retry-budget-exhausted", New(Config{Backends: []*Backend{shedding("a"), shedding("b"), shedding("c")}, RetryBudgetBurst: 1}),
			http.MethodPost, "/solve",
			`{"matrix":{"name":"laplace3d"}}`, http.StatusServiceUnavailable, codeRetryBudgetExhausted},
		{"deadline-exhausted", New(Config{Backends: []*Backend{live.Backend()}, Clock: tickingClock(200 * time.Millisecond)}),
			http.MethodPost, "/solve",
			`{"matrix":{"name":"laplace3d"},"deadline_ms":100}`, http.StatusGatewayTimeout, codeDeadlineExhausted},
		{"no-backend", New(Config{}), http.MethodPost, "/solve",
			`{"matrix":{"name":"laplace3d"}}`, http.StatusServiceUnavailable, codeNoBackend},
		{"hop-limit", New(Config{Backends: []*Backend{deadA, deadB, deadC}, MaxHops: 2}),
			http.MethodPost, "/solve",
			`{"matrix":{"name":"laplace3d"}}`, http.StatusServiceUnavailable, codeHopLimit},
		{"shard-unavailable", New(Config{Backends: []*Backend{deadA, deadB}, MaxHops: 5}),
			http.MethodPost, "/solve",
			`{"matrix":{"name":"laplace3d"}}`, http.StatusServiceUnavailable, codeShardUnavailable},
		{"bad-json", New(Config{Backends: []*Backend{live.Backend()}}), http.MethodPost, "/solve",
			`{"matrix":`, http.StatusBadRequest, obs.CodeBadRequest},
		{"no-matrix", New(Config{Backends: []*Backend{live.Backend()}}), http.MethodPost, "/solve",
			`{}`, http.StatusBadRequest, obs.CodeBadRequest},
		{"solve-get", New(Config{Backends: []*Backend{live.Backend()}}), http.MethodGet, "/solve",
			``, http.StatusMethodNotAllowed, obs.CodeMethodNotAllowed},
		{"job-unqualified", New(Config{Backends: []*Backend{live.Backend()}}), http.MethodGet, "/jobs/42",
			``, http.StatusNotFound, obs.CodeNotFound},
		{"job-unknown-backend", New(Config{Backends: []*Backend{live.Backend()}}), http.MethodGet, "/jobs/nope/42",
			``, http.StatusNotFound, obs.CodeNotFound},
		{"admin-unknown", New(Config{Backends: []*Backend{live.Backend()}}), http.MethodPost, "/admin/kill/nope",
			``, http.StatusNotFound, obs.CodeNotFound},
		{"backend-pass-unknown", New(Config{Backends: []*Backend{live.Backend()}}), http.MethodGet, "/backends/nope/metrics",
			``, http.StatusNotFound, obs.CodeNotFound},
		{"backend-pass-dead", New(Config{Backends: []*Backend{deadA}}), http.MethodGet, "/backends/dead-a/metrics",
			``, http.StatusBadGateway, codeUpstreamError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			tc.router.ServeHTTP(rec, req)
			if rec.Code != tc.wantCode {
				t.Fatalf("HTTP %d, want %d: %s", rec.Code, tc.wantCode, rec.Body.String())
			}
			var e obs.ErrorBody
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&e); err != nil || strings.Contains(rec.Body.String(), "retry_after_seconds") {
				t.Fatalf("rejection body is not a hint-free obs.ErrorBody: %s (%v)", rec.Body.String(), err)
			}
			if e.Code != tc.wantErr {
				t.Errorf("code %q, want %q (%s)", e.Code, tc.wantErr, e.Error)
			}
			if e.Error == "" {
				t.Error("rejection without a human-readable message")
			}
		})
	}
}

// TestRouterTraceparent: a caller's traceparent propagates to the
// backend and the backend's echo comes back through the router.
func TestRouterTraceparent(t *testing.T) {
	r, _ := newTestCluster(t, 2)
	const parent = "00-aabbccddeeff00112233445566778899-aabbccddeeff0011-01"
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t, tinySpec())))
	req.Header.Set("traceparent", parent)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	echo := rec.Result().Header.Get("traceparent")
	if !strings.Contains(echo, "aabbccddeeff00112233445566778899") {
		t.Errorf("trace id did not round-trip: echoed %q", echo)
	}
	var job RoutedJob
	_ = json.Unmarshal(rec.Body.Bytes(), &job)
	if job.TraceID != "aabbccddeeff00112233445566778899" {
		t.Errorf("job trace id %q, want the caller's", job.TraceID)
	}
}

// TestRouterHealthAggregation: killing a backend degrades the cluster
// view; reviving it recovers.
func TestRouterHealthAggregation(t *testing.T) {
	r, _ := newTestCluster(t, 3)
	health := func() ClusterHealthz {
		code, body := get(t, r, "/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz: HTTP %d", code)
		}
		var h ClusterHealthz
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := health()
	if !h.OK || h.Degraded || h.Healthy != 3 || h.Backends != 3 {
		t.Fatalf("healthy cluster reports %+v", h)
	}
	if h.PoolSize != 3 {
		t.Errorf("aggregated pool size %d, want 3 (1 per node)", h.PoolSize)
	}

	req := httptest.NewRequest(http.MethodPost, "/admin/kill/node1", nil)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("admin kill: HTTP %d", rec.Code)
	}
	h = health()
	if !h.Degraded || h.Healthy != 2 {
		t.Fatalf("after kill: %+v, want degraded with 2 healthy", h)
	}
	if !h.OK {
		t.Error("cluster with survivors must stay OK")
	}
	var killed BackendHealth
	for _, bh := range h.PerBackend {
		if bh.Name == "node1" {
			killed = bh
		}
	}
	if killed.Reachable || !killed.Down || killed.Error == "" {
		t.Errorf("killed backend health %+v", killed)
	}

	req = httptest.NewRequest(http.MethodPost, "/admin/revive/node1", nil)
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("admin revive: HTTP %d", rec.Code)
	}
	h = health()
	if h.Degraded || h.Healthy != 3 {
		t.Fatalf("after revive: %+v, want fully healthy", h)
	}
}

// TestRouterSLOAndMetrics: the aggregated /slo body carries every
// backend, and /metrics serves the router's own instruments.
func TestRouterSLOAndMetrics(t *testing.T) {
	r, _ := newTestCluster(t, 2)
	post(t, r, solveBody(t, tinySpec()))
	code, body := get(t, r, "/slo")
	if code != http.StatusOK {
		t.Fatalf("slo: HTTP %d", code)
	}
	var slo ClusterSLO
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatal(err)
	}
	if len(slo.Backends) != 2 || slo.Backends["node0"] == nil || slo.Backends["node1"] == nil {
		t.Errorf("slo aggregation missing backends: %+v", slo)
	}
	code, body = get(t, r, "/metrics")
	if code != http.StatusOK || !bytes.Contains(body, []byte("router_solves_total")) {
		t.Errorf("router metrics: HTTP %d, body %.120s", code, body)
	}
	// Per-backend metrics pass through with their own families intact.
	code, body = get(t, r, "/backends/node0/metrics")
	if code != http.StatusOK || !bytes.Contains(body, []byte("sched_")) {
		t.Errorf("backend metrics passthrough: HTTP %d, body %.120s", code, body)
	}
}

// TestShardMapDecode pins the shard-map decoder's error handling.
func TestShardMapDecode(t *testing.T) {
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"empty", "", true},
		{"zero", "{}", true},
		{"assign", `{"assign":{"gen:laplace3d@0.01":"node2"}}`, true},
		{"weights", `{"weights":{"node0":2.5,"node1":0.5}}`, true},
		{"both", `{"assign":{"mm:abc":"a"},"weights":{"a":1}}`, true},
		{"unknown-field", `{"routes":{}}`, false},
		{"trailing", `{} {}`, false},
		{"zero-weight", `{"weights":{"a":0}}`, false},
		{"negative-weight", `{"weights":{"a":-1}}`, false},
		{"empty-assign-target", `{"assign":{"k":""}}`, false},
		{"not-json", `assign: x`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeShardMap([]byte(tc.in))
			if tc.ok && err != nil {
				t.Fatalf("DecodeShardMap(%q): %v", tc.in, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("DecodeShardMap(%q) should fail, got %+v", tc.in, m)
			}
		})
	}
}

// TestRendezvousStability: removing one backend only moves keys that
// were ranked onto it; everyone else's first choice is unchanged.
func TestRendezvousStability(t *testing.T) {
	mk := func(names ...string) []*Backend {
		out := make([]*Backend, len(names))
		for i, n := range names {
			out[i] = NewLocalBackend(n, http.NotFoundHandler())
		}
		return out
	}
	full := mk("a", "b", "c", "d")
	reduced := mk("a", "b", "d")
	moved := 0
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("gen:m@%d", i)
		f := rank(full, key, nil)[0].Name()
		r := rank(reduced, key, nil)[0].Name()
		if f == "c" {
			continue // had to move
		}
		if f != r {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved that were not on the removed backend", moved)
	}
}

// TestRouterBodyLimit: the router refuses a solve body over
// server.MaxBodyBytes itself — a counted reject, nothing forwarded —
// and still routes one exactly at the limit.
func TestRouterBodyLimit(t *testing.T) {
	r, _ := newTestCluster(t, 2)
	doc := solveBody(t, tinySpec())
	padded := func(size int) []byte {
		return append(bytes.Repeat([]byte(" "), size-len(doc)), doc...)
	}

	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(padded(server.MaxBodyBytes+1)))
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	var rej obs.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &rej); err != nil {
		t.Fatalf("oversized body: HTTP %d, undecodable rejection %q: %v", rec.Code, rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || rej.Code != obs.CodeRequestTooLarge {
		t.Fatalf("oversized body: HTTP %d code %q, want 413 %s", rec.Code, rej.Code, obs.CodeRequestTooLarge)
	}
	if solves, _, rejects := r.Counts(); solves != 0 || rejects != 1 {
		t.Fatalf("oversized body: %d solves forwarded, %d rejects; want 0 and 1", solves, rejects)
	}

	code, job, _ := post(t, r, padded(server.MaxBodyBytes))
	if code != http.StatusOK || !job.Converged {
		t.Fatalf("body at the limit: HTTP %d, job %+v", code, job)
	}
}

// unread is a request body that fails the test if anything reads it.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}

// TestRouterBodyFraming: the router reads a body of declared length, one
// of unknown length (chunked) and one declared past the eager buffer to
// the same solve, byte for byte; refuses a declared length over
// server.MaxBodyBytes with the 413 of an over-long body without reading
// it; and refuses a body that ends before or runs past its declared
// length.
func TestRouterBodyFraming(t *testing.T) {
	r, _ := newTestCluster(t, 1)
	body := solveBody(t, tinySpec())
	long := append(bytes.Repeat([]byte(" "), 1<<20), body...) // past server.ReadBody's eager buffer
	for _, tc := range []struct {
		body   []byte
		length int64
	}{{body, int64(len(body))}, {body, -1}, {long, int64(len(long))}} {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(tc.body))
		req.ContentLength = tc.length
		s, rej := r.decode(httptest.NewRecorder(), req)
		if rej != nil || !bytes.Equal(s.body, tc.body) || !s.wait {
			t.Fatalf("%d bytes, length %d: wait %v, rejection %+v", len(tc.body), tc.length, s.wait, rej)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/solve", unread{t})
	req.ContentLength = server.MaxBodyBytes + 1
	if _, rej := r.decode(httptest.NewRecorder(), req); rej == nil ||
		*rej != (rejection{http.StatusRequestEntityTooLarge, obs.CodeRequestTooLarge, "http: request body too large"}) {
		t.Fatalf("declared length over the limit: %+v", rej)
	}

	for _, length := range []int64{int64(len(body)) + 1, int64(len(body)) - 1} {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
		req.ContentLength = length
		if _, rej := r.decode(httptest.NewRecorder(), req); rej == nil || rej.status != http.StatusBadRequest {
			t.Fatalf("body of %d bytes declared %d: %+v, want a 400", len(body), length, rej)
		}
	}
}
