package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cagmres/internal/clock"
	"cagmres/internal/obs"
	"cagmres/internal/sched"
	"cagmres/internal/server"
)

// doneHandler answers every solve with a minimal completed job.
func doneHandler(id string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"state":"done","converged":true}`, id)
	})
}

// statusHandler answers every request with a fixed structured status.
func statusHandler(status int, code string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"code":%q,"error":"synthetic"}`, code)
	})
}

// pinned builds a shard map pinning the test spec's key to name.
func pinned(t *testing.T, name string) *ShardMap {
	t.Helper()
	key, err := ShardKey(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	return &ShardMap{Assign: map[string]string{key: name}}
}

// TestRouterRetryBudgetExhausted: with every backend shedding, the
// router forwards only while the token bucket holds out, then answers a
// structured retry_budget_exhausted with a Retry-After hint instead of
// hammering the remaining candidates.
func TestRouterRetryBudgetExhausted(t *testing.T) {
	mk := func(name string) *Backend {
		return NewLocalBackend(name, statusHandler(http.StatusTooManyRequests, "queue_full"))
	}
	r := New(Config{
		Backends:         []*Backend{mk("a"), mk("b"), mk("c")},
		MaxHops:          3,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 1, // one token: first forward allowed, second denied
	})
	code, _, hdr := post(t, r, solveBody(t, tinySpec()))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503", code)
	}
	var e obs.ErrorBody
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t, tinySpec())))
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("rejection body: %v", err)
	}
	if e.Code != codeRetryBudgetExhausted {
		t.Errorf("code %q, want %q", e.Code, codeRetryBudgetExhausted)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("retry_budget_exhausted rejection without a Retry-After hint")
	}
	res := r.ResilienceSnapshot()
	if res.RetryBudgetDenied == 0 {
		t.Errorf("budget denials not accounted: %+v", res)
	}
	if res.RetryBudgetSpent == 0 {
		t.Errorf("budget spends not accounted: %+v", res)
	}
	_, mbody := get(t, r, "/metrics")
	if !bytes.Contains(mbody, []byte("router_retry_budget_exhausted_total")) {
		t.Error("router_retry_budget_exhausted_total family missing from /metrics")
	}
}

// TestRouterBreakerSkipsOpenBackend: consecutive failures open the
// failing backend's breaker, after which the router routes around it
// without wasting an attempt; the cooldown admits a half-open probe
// whose failure re-opens the circuit. All on virtual time.
func TestRouterBreakerSkipsOpenBackend(t *testing.T) {
	clk := newFakeClock()
	failing := NewLocalBackend("failing", statusHandler(http.StatusInternalServerError, "boom"))
	healthy := NewLocalNode(LocalNodeConfig{Name: "healthy", Devices: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = healthy.Drain(ctx)
	})
	r := New(Config{
		Backends: []*Backend{failing, healthy.Backend()},
		MaxHops:  2,
		ShardMap: pinned(t, "failing"),
		Breaker:  BreakerConfig{Threshold: 2, Cooldown: 5},
		Clock:    clk,
	})

	// Two solves burn one failing attempt each; the second opens the
	// breaker. Both still complete on the healthy backend.
	for i := 0; i < 2; i++ {
		code, job, _ := post(t, r, solveBody(t, tinySpec()))
		if code != http.StatusOK || job.Backend != "healthy" || job.Hops != 2 {
			t.Fatalf("solve %d: HTTP %d backend %q hops %d", i, code, job.Backend, job.Hops)
		}
	}
	if st := r.ResilienceSnapshot().Breakers["failing"]; st != BreakerOpen {
		t.Fatalf("breaker after %d failures: %q, want open", 2, st)
	}

	// Open breaker: the failing backend is skipped without an attempt, so
	// the solve lands on the survivor in a single hop.
	code, job, _ := post(t, r, solveBody(t, tinySpec()))
	if code != http.StatusOK || job.Backend != "healthy" {
		t.Fatalf("solve with open breaker: HTTP %d backend %q", code, job.Backend)
	}
	if job.Hops != 1 {
		t.Errorf("open breaker still burned a hop: hops=%d, want 1", job.Hops)
	}
	res := r.ResilienceSnapshot()
	if res.BreakerSkips == 0 {
		t.Errorf("breaker skip not accounted: %+v", res)
	}

	// Cooldown elapsed: exactly one half-open probe reaches the failing
	// backend; its 500 re-opens the circuit immediately.
	clk.advance(6 * time.Second)
	code, job, _ = post(t, r, solveBody(t, tinySpec()))
	if code != http.StatusOK || job.Backend != "healthy" || job.Hops != 2 {
		t.Fatalf("half-open probe solve: HTTP %d backend %q hops %d", code, job.Backend, job.Hops)
	}
	if st := r.ResilienceSnapshot().Breakers["failing"]; st != BreakerOpen {
		t.Errorf("failed probe should re-open the breaker, state %q", st)
	}

	// The per-backend breaker state surfaces in /healthz.
	_, body := get(t, r, "/healthz")
	var h ClusterHealthz
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, bh := range h.PerBackend {
		states[bh.Name] = bh.Breaker
	}
	if states["failing"] != BreakerOpen || states["healthy"] != BreakerClosed {
		t.Errorf("healthz breaker states %v", states)
	}
}

// TestRouterDeadlineExhausted: a client deadline that runs out at the
// router yields a 504 deadline_exhausted without reaching any backend.
func TestRouterDeadlineExhausted(t *testing.T) {
	touched := false
	b := NewLocalBackend("slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		touched = true
	}))
	r := New(Config{
		Backends: []*Backend{b},
		// Every clock read advances 200ms, so a 100ms budget is already
		// spent by the first per-attempt check.
		Clock: tickingClock(200 * time.Millisecond),
	})
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t, tinySpec())))
	req.Header.Set(server.SolveControlHeader, "deadline-ms=100")
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var e obs.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != codeDeadlineExhausted {
		t.Errorf("rejection %q (%v), want %q", e.Code, err, codeDeadlineExhausted)
	}
	if touched {
		t.Error("expired-deadline solve still reached a backend")
	}
	if res := r.ResilienceSnapshot(); res.DeadlineExpired != 1 {
		t.Errorf("deadline expiry not accounted: %+v", res)
	}
}

// TestRouterDeadlinePropagation: the router decrements the client
// deadline by its own elapsed time and forwards the remainder in both
// the Solve-Control header and the job body.
func TestRouterDeadlinePropagation(t *testing.T) {
	var gotHeader string
	var gotBody map[string]any
	capture := NewLocalBackend("cap", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get(server.SolveControlHeader)
		var m map[string]any
		_ = json.NewDecoder(r.Body).Decode(&m)
		gotBody = m
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"1","state":"done","converged":true}`)
	}))
	r := New(Config{
		Backends: []*Backend{capture},
		// 50ms pass between the request arriving and the forward.
		Clock: tickingClock(50 * time.Millisecond),
	})
	body, err := json.Marshal(map[string]any{
		"matrix": tinySpec(),
		"m":      20, "s": 4, "tol": 1e-6,
		"deadline_ms": 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, job, _ := post(t, r, body)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if job.ID != "cap/1" {
		t.Errorf("job id %q, want cap/1", job.ID)
	}
	ctl, err := server.ParseSolveControl(gotHeader)
	if err != nil {
		t.Fatalf("forwarded Solve-Control %q: %v", gotHeader, err)
	}
	if ctl.DeadlineMS != 4950 {
		t.Errorf("forwarded deadline %dms, want 4950 (5000 minus 50ms router time)", ctl.DeadlineMS)
	}
	if got, ok := gotBody["deadline_ms"].(float64); !ok || int64(got) != 4950 {
		t.Errorf("forwarded body deadline_ms %v, want 4950", gotBody["deadline_ms"])
	}
}

// TestRouterHedgedSolve: a stalled first-choice backend triggers a
// hedged second attempt when the hedge timer fires; the fast backend's
// response wins and the accounting records the hedge.
func TestRouterHedgedSolve(t *testing.T) {
	slow := NewLocalBackend("slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // stalls until the hedge wins
	}))
	fast := NewLocalBackend("fast", doneHandler("f"))
	clk := newFakeClock()
	r := New(Config{
		Backends:   []*Backend{slow, fast},
		MaxHops:    2,
		ShardMap:   pinned(t, "slow"),
		HedgeAfter: 0.02,
		Clock:      clk,
	})
	body, err := json.Marshal(map[string]any{
		"matrix": tinySpec(), "m": 20, "s": 4, "tol": 1e-6, "wait": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go clk.fire()
	code, job, _ := post(t, r, body)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if !job.Hedged || job.Backend != "fast" {
		t.Fatalf("hedge did not win: hedged=%t backend=%q", job.Hedged, job.Backend)
	}
	res := r.ResilienceSnapshot()
	if res.Hedges != 1 || res.HedgeWins != 1 {
		t.Errorf("hedge accounting %+v, want 1 hedge, 1 win", res)
	}
	// A hedge is a forward past the first choice: it drew from the budget.
	if res.RetryBudgetSpent != 1 {
		t.Errorf("hedge did not draw from the retry budget: %+v", res)
	}
}

// TestRouterHedgeDisabledByControlHeader: Solve-Control hedge=off wins
// over the router's HedgeAfter default: no hedge timer is armed at all.
func TestRouterHedgeDisabledByControlHeader(t *testing.T) {
	slow := NewLocalBackend("slow", doneHandler("s"))
	fast := NewLocalBackend("fast", doneHandler("f"))
	clk := newFakeClock()
	r := New(Config{
		Backends:   []*Backend{slow, fast},
		MaxHops:    2,
		ShardMap:   pinned(t, "slow"),
		HedgeAfter: 0.01,
		Clock:      clk,
	})
	body, err := json.Marshal(map[string]any{
		"matrix": tinySpec(), "m": 20, "s": 4, "tol": 1e-6, "wait": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	req.Header.Set(server.SolveControlHeader, "hedge=off")
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	var job RoutedJob
	_ = json.Unmarshal(rec.Body.Bytes(), &job)
	if rec.Code != http.StatusOK || job.Backend != "slow" || job.Hedged {
		t.Fatalf("hedge=off ignored: HTTP %d backend %q hedged=%t", rec.Code, job.Backend, job.Hedged)
	}
	if res := r.ResilienceSnapshot(); res.Hedges != 0 || clk.timersArmed() != 0 {
		t.Errorf("hedge armed despite hedge=off: %d timers, %+v", clk.timersArmed(), res)
	}
}

// TestBreakerPeekIsSideEffectFree: Peek answers what Allow would say
// without transitioning state or consuming the half-open probe slot,
// and Release frees an abandoned probe.
func TestBreakerPeekIsSideEffectFree(t *testing.T) {
	clk := newFakeClock()
	br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 5}, clk, obs.NewRegistry(), "b")
	if !br.Peek() {
		t.Fatal("closed breaker should peek true")
	}
	br.Failure() // threshold 1: opens
	if br.Peek() {
		t.Error("open breaker before cooldown should peek false")
	}
	clk.advance(6 * time.Second)
	for i := 0; i < 3; i++ {
		if !br.Peek() {
			t.Fatalf("peek %d consumed the probe slot", i)
		}
	}
	if st := br.State(); st != BreakerOpen {
		t.Errorf("peek transitioned state to %q", st)
	}
	if !br.Allow() {
		t.Fatal("cooldown elapsed: Allow should admit the probe")
	}
	if br.Peek() {
		t.Error("probe in flight: peek should deny a second probe")
	}
	br.Release()
	if !br.Peek() {
		t.Error("Release did not free the abandoned probe slot")
	}
}

// TestHedgeSelectionDoesNotConsumeProbe: an open-past-cooldown backend
// that is repeatedly *considered* as a hedge target — but never
// dispatched to, because the primary answers within the hedge delay —
// must keep its probe slot, so it can still rejoin rotation. (The bug:
// candidate selection called Allow, moved the breaker to half-open
// with the probe held, and no outcome was ever recorded, excluding the
// backend from routing forever.)
func TestHedgeSelectionDoesNotConsumeProbe(t *testing.T) {
	clk := newFakeClock()
	fast := NewLocalBackend("fast", doneHandler("f"))
	other := NewLocalBackend("other", doneHandler("o"))
	r := New(Config{
		Backends:   []*Backend{fast, other},
		MaxHops:    2,
		ShardMap:   pinned(t, "fast"),
		HedgeAfter: 0.5, // the hedge timer is never fired: the primary answers
		Breaker:    BreakerConfig{Threshold: 1, Cooldown: 5},
		Clock:      clk,
	})
	r.breakers["other"].Trip()
	clk.advance(10 * time.Second) // past cooldown: one probe is available
	body, err := json.Marshal(map[string]any{
		"matrix": tinySpec(), "m": 20, "s": 4, "tol": 1e-6, "wait": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		code, job, _ := post(t, r, body)
		if code != http.StatusOK || job.Backend != "fast" || job.Hedged {
			t.Fatalf("solve %d: HTTP %d backend %q hedged=%t", i, code, job.Backend, job.Hedged)
		}
	}
	if st := r.breakers["other"].State(); st != BreakerOpen {
		t.Fatalf("hedge selection mutated the breaker: state %q, want open", st)
	}
	if !r.breakers["other"].Peek() {
		t.Fatal("hedge selection consumed the probe slot")
	}
	// The recovered node can actually rejoin rotation: with the primary
	// killed, the probe reaches it and its success closes the circuit.
	req := httptest.NewRequest(http.MethodPost, "/admin/kill/fast", nil)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	code, job, _ := post(t, r, body)
	if code != http.StatusOK || job.Backend != "other" {
		t.Fatalf("probe solve: HTTP %d backend %q", code, job.Backend)
	}
	if st := r.breakers["other"].State(); st != BreakerClosed {
		t.Errorf("successful probe left breaker %q, want closed", st)
	}
}

// TestReapLoserRecordsBreakerOutcome: the hedged race's loser must
// leave its breaker in a sane state — a canceled loser releases the
// probe slot, a real response counts as the failure or success it is.
func TestReapLoserRecordsBreakerOutcome(t *testing.T) {
	clk := newFakeClock()
	br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 1}, clk, obs.NewRegistry(), "b")
	var r Router

	// Canceled loser: no health signal, probe slot freed.
	br.Trip()
	clk.advance(2 * time.Second)
	if !br.Allow() {
		t.Fatal("probe not admitted")
	}
	r.reapLoser(attempt{err: context.Canceled}, br)
	if st := br.State(); st != BreakerHalfOpen || !br.Peek() {
		t.Fatalf("canceled loser: state %q peek %t, want half-open with a free probe", st, br.Peek())
	}

	// 5xx loser: counts as a failed probe, re-opens.
	if !br.Allow() {
		t.Fatal("freed probe not admitted")
	}
	r.reapLoser(attempt{status: http.StatusInternalServerError}, br)
	if st := br.State(); st != BreakerOpen {
		t.Fatalf("5xx loser: state %q, want open", st)
	}

	// 2xx loser with a finished job: counts as a success, closes.
	clk.advance(2 * time.Second)
	if !br.Allow() {
		t.Fatal("probe after reopen not admitted")
	}
	r.reapLoser(attempt{status: http.StatusOK, body: []byte(`{"id":"j1","state":"done"}`)}, br)
	if st := br.State(); st != BreakerClosed {
		t.Fatalf("2xx loser: state %q, want closed", st)
	}

	// A 200 whose job failed (the node died mid-solve) or whose body does
	// not decode is the failure the main loop counts it as: each opens the
	// closed breaker at its threshold of one.
	for name, body := range map[string]string{
		"failed-job": `{"id":"j2","state":"failed","error":"device lost"}`,
		"bad-body":   `{"id":`,
	} {
		clk.advance(2 * time.Second)
		if !br.Allow() {
			t.Fatalf("%s: probe not admitted", name)
		}
		br.Success()
		r.reapLoser(attempt{status: http.StatusOK, body: []byte(body)}, br)
		if st := br.State(); st != BreakerOpen {
			t.Errorf("%s loser: state %q, want open", name, st)
		}
	}
}

// TestLocalBackendReportsAbandonedCancel: an in-process handler that
// gives up on a canceled request without answering is a canceled fetch, as
// it is over HTTP — not an empty 200 for the breaker to judge; a handler
// that answers anyway keeps its answer.
func TestLocalBackendReportsAbandonedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	silent := NewLocalBackend("silent", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	if _, _, _, err := silent.fetch(ctx, http.MethodPost, "/solve", "", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned canceled request: err %v, want context.Canceled", err)
	}
	if status, _, _, err := silent.fetch(context.Background(), http.MethodPost, "/solve", "", nil, nil); err != nil || status != http.StatusOK {
		t.Fatalf("live request to a silent handler: HTTP %d, %v", status, err)
	}
	if status, _, body, err := NewLocalBackend("d", doneHandler("d")).fetch(ctx, http.MethodPost, "/solve", "", nil, nil); err != nil || status != http.StatusOK || len(body) == 0 {
		t.Fatalf("answered canceled request: HTTP %d, %d bytes, %v", status, len(body), err)
	}
}

// TestExpiredDeadlineDoesNotDrainRetryBudget: a reroute whose deadline
// has already expired is rejected before a budget token is taken, so
// dead-on-arrival traffic cannot starve the budget for live solves.
func TestExpiredDeadlineDoesNotDrainRetryBudget(t *testing.T) {
	shed := NewLocalBackend("shed", statusHandler(http.StatusTooManyRequests, "queue_full"))
	spare := NewLocalBackend("spare", doneHandler("s"))
	r := New(Config{
		Backends:         []*Backend{shed, spare},
		MaxHops:          2,
		ShardMap:         pinned(t, "shed"),
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 5,
		// Every clock read advances 200ms: the first attempt fits a 300ms
		// deadline, the reroute check does not.
		Clock: tickingClock(200 * time.Millisecond),
	})
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t, tinySpec())))
	req.Header.Set(server.SolveControlHeader, "deadline-ms=300")
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var e obs.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != codeDeadlineExhausted {
		t.Errorf("rejection %q (%v), want %q", e.Code, err, codeDeadlineExhausted)
	}
	res := r.ResilienceSnapshot()
	if res.RetryBudgetSpent != 0 {
		t.Errorf("expired-deadline reroute drained the budget: %+v", res)
	}
	if res.RetryBudgetTokens != 5 {
		t.Errorf("budget tokens %v, want the full burst of 5", res.RetryBudgetTokens)
	}
	if res.DeadlineExpired != 1 {
		t.Errorf("deadline expiry not accounted: %+v", res)
	}
}

// TestRewriteDeadlinePreservesOpaqueFields: only deadline_ms changes;
// every other field — including integers beyond float64's 2^53 exact
// range — stays byte-identical.
func TestRewriteDeadlinePreservesOpaqueFields(t *testing.T) {
	body := []byte(`{"big":9007199254740993,"deadline_ms":5000,"tiny":1e-320}`)
	out := rewriteDeadline(body, 1234)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatalf("rewritten body: %v", err)
	}
	if got := string(m["deadline_ms"]); got != "1234" {
		t.Errorf("deadline_ms %s, want 1234", got)
	}
	if got := string(m["big"]); got != "9007199254740993" {
		t.Errorf("opaque integer corrupted: %s, want 9007199254740993", got)
	}
	if got := string(m["tiny"]); got != "1e-320" {
		t.Errorf("opaque float re-encoded: %s, want 1e-320", got)
	}
}

// TestHedgeBudgetDenialCountsInMetric: a hedge refused by an empty
// retry budget shows up both in the resilience snapshot and in the
// router_retry_budget_exhausted_total metric family.
func TestHedgeBudgetDenialCountsInMetric(t *testing.T) {
	release := make(chan struct{})
	slow := NewLocalBackend("slow", heldHandler("s", release))
	fast := NewLocalBackend("fast", doneHandler("f"))
	clk := newFakeClock()
	r := New(Config{
		Backends:         []*Backend{slow, fast},
		MaxHops:          2,
		ShardMap:         pinned(t, "slow"),
		HedgeAfter:       0.02,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 1,
		Clock:            clk,
	})
	if !r.budget.Take() {
		t.Fatal("could not pre-drain the budget")
	}
	body, err := json.Marshal(map[string]any{
		"matrix": tinySpec(), "m": 20, "s": 4, "tol": 1e-6, "wait": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go fireThenRelease(clk, r, 1, release)
	code, job, _ := post(t, r, body)
	if code != http.StatusOK || job.Backend != "slow" || job.Hedged {
		t.Fatalf("HTTP %d backend %q hedged=%t, want the un-hedged primary", code, job.Backend, job.Hedged)
	}
	res := r.ResilienceSnapshot()
	if res.Hedges != 0 {
		t.Errorf("hedge launched with an empty budget: %+v", res)
	}
	if res.RetryBudgetDenied != 1 {
		t.Errorf("hedge denial missing from snapshot: %+v", res)
	}
	_, mbody := get(t, r, "/metrics")
	if !bytes.Contains(mbody, []byte("router_retry_budget_exhausted_total 1")) {
		t.Errorf("hedge denial missing from metrics:\n%s", mbody)
	}
}

// TestRouterReforwardReplayWithBreakersArmed: the forced re-forward of
// a real solve off an overloaded first choice is bit-identical across
// two fresh federations with the containment layer armed — the budget,
// breakers and virtual clock add no nondeterminism to routing.
func TestRouterReforwardReplayWithBreakersArmed(t *testing.T) {
	runOnce := func() RoutedJob {
		overloaded := NewLocalBackend("full", statusHandler(http.StatusTooManyRequests, "queue_full"))
		node := NewLocalNode(LocalNodeConfig{Name: "spare", Devices: 2})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = node.Drain(ctx)
		}()
		r := New(Config{
			Backends:         []*Backend{overloaded, node.Backend()},
			MaxHops:          2,
			ShardMap:         pinned(t, "full"),
			RetryBudgetRatio: 0.1,
			RetryBudgetBurst: 10,
			Breaker:          BreakerConfig{Threshold: 5, Cooldown: 5},
			Clock:            newFakeClock(),
		})
		code, job, _ := post(t, r, solveBody(t, tinySpec()))
		if code != http.StatusOK || job.Backend != "spare" || job.Hops != 2 {
			t.Fatalf("forced re-forward: HTTP %d backend %q hops %d", code, job.Backend, job.Hops)
		}
		return job
	}
	a := runOnce()
	b := runOnce()
	if a.ModeledSeconds != b.ModeledSeconds || a.Iters != b.Iters ||
		a.RelRes != b.RelRes || a.Backend != b.Backend || a.Hops != b.Hops {
		t.Errorf("re-forward replay diverged:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
}

// TestRouterKillReviveBreakerRace hammers the admin kill/revive surface
// concurrently with solves, health checks and metric scrapes. It exists
// for the race detector: breaker transitions, budget accounting and
// gauge refreshes must be safe under concurrent admin flips.
func TestRouterKillReviveBreakerRace(t *testing.T) {
	backends := []*Backend{
		NewLocalBackend("n0", doneHandler("a")),
		NewLocalBackend("n1", doneHandler("b")),
		NewLocalBackend("n2", doneHandler("c")),
	}
	r := New(Config{Backends: backends, MaxHops: 3, HedgeAfter: 0.001})
	body, err := json.Marshal(map[string]any{
		"matrix": tinySpec(), "m": 20, "s": 4, "tol": 1e-6, "wait": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				r.ServeHTTP(rec, req) // any status: shed is legal mid-kill
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			action := "kill"
			if i%2 == 1 {
				action = "revive"
			}
			req := httptest.NewRequest(http.MethodPost, "/admin/"+action+"/n1", nil)
			rec := httptest.NewRecorder()
			r.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("admin %s: HTTP %d", action, rec.Code)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			get(t, r, "/healthz")
			get(t, r, "/metrics")
		}
	}()
	wg.Wait()

	// Settle: revive everything, then a solve must succeed.
	req := httptest.NewRequest(http.MethodPost, "/admin/revive/n1", nil)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	code, job, _ := post(t, r, body)
	if code != http.StatusOK {
		t.Fatalf("solve after settling: HTTP %d (%+v)", code, job)
	}
	if st := r.ResilienceSnapshot().Breakers["n1"]; st != BreakerClosed {
		t.Errorf("revived backend's breaker %q, want closed", st)
	}
}

// TestBadOptionDoesNotTripHealthyNodes: a client's bad option is the
// client's error on every node, so each of six waited solves naming an
// unknown TSQR strategy is answered 400 bad_request by the first-choice
// node and passed through — no reroute, no breaker failure, no budget
// token, no failed job in any node's SLO — and a valid solve afterwards
// completes. (Admitted and failed as a job, the same request opened both
// healthy nodes' breakers and the next valid solve got a 503.)
func TestBadOptionDoesNotTripHealthyNodes(t *testing.T) {
	_, nodes := newTestCluster(t, 2)
	r := New(Config{
		Backends:         []*Backend{nodes[0].Backend(), nodes[1].Backend()},
		MaxHops:          2,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 10,
		Breaker:          BreakerConfig{Threshold: 5, Cooldown: 5},
		Clock:            newFakeClock(),
	})
	body := func(ortho string) []byte {
		b, err := json.Marshal(server.SolveRequest{Matrix: tinySpec(), M: 20, S: 4, Tol: 1e-6, Ortho: ortho, Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := 0; i < 6; i++ {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body("bogus")))
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, req)
		var e obs.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || e.Code != "bad_request" {
			t.Fatalf("bad ortho %d: HTTP %d %s, want 400 bad_request", i, rec.Code, rec.Body.Bytes())
		}
	}
	if code, job, _ := post(t, r, body("CholQR")); code != http.StatusOK || job.State != "done" {
		t.Fatalf("valid solve after the bad ones: HTTP %d %+v", code, job)
	}
	res := r.ResilienceSnapshot()
	_, reroutes, _ := r.Counts()
	if reroutes != 0 || res.RetryBudgetSpent != 0 {
		t.Errorf("bad options were retried: reroutes %d, retry budget spent %d", reroutes, res.RetryBudgetSpent)
	}
	for _, n := range nodes {
		if st := res.Breakers[n.Name]; st != BreakerClosed {
			t.Errorf("breaker of healthy %s is %q, want closed", n.Name, st)
		}
		if n.Sched.SLO().Report().Degraded {
			t.Errorf("%s reports slo_degraded after answering bad requests", n.Name)
		}
	}
}

// TestPoisonBodiesDoNotTripBreakers: CA-GMRES(2, 2) on diag(1,1,0)
// fails the same way on every node — CholQR with a 422 breakdown, the
// default strategy by running to MaxRestarts. Ten such bodies through
// a 3-node router leave every breaker closed and the federation
// serving: a 422 and a done job are the client's answer, not a node
// fault.
func TestPoisonBodiesDoNotTripBreakers(t *testing.T) {
	_, nodes := newTestCluster(t, 3)
	backends := make([]*Backend, len(nodes))
	for i, n := range nodes {
		backends[i] = n.Backend()
	}
	r := New(Config{
		Backends:         backends,
		MaxHops:          3,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 10,
		Breaker:          BreakerConfig{Threshold: 5, Cooldown: 5},
		Clock:            newFakeClock(),
	})
	diag110 := server.MatrixSpec{MatrixMarket: "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 2 1\n"}
	body := func(req server.SolveRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := 0; i < 10; i++ {
		ortho, want := "", http.StatusOK
		if i%2 == 0 {
			ortho, want = "CholQR", http.StatusUnprocessableEntity
		}
		code, job, _ := post(t, r, body(server.SolveRequest{Matrix: diag110, Solver: "ca", M: 2, S: 2,
			Ortho: ortho, Ordering: "natural", Wait: true}))
		if code != want {
			t.Errorf("poison body %d (ortho %q): HTTP %d %s, want %d", i, ortho, code, job.Error, want)
		}
	}
	if code, job, _ := post(t, r, body(server.SolveRequest{Matrix: tinySpec(), M: 20, S: 4, Tol: 1e-6, Ortho: "CholQR", Wait: true})); code != http.StatusOK || job.State != "done" {
		t.Fatalf("healthy solve after the poison bodies: HTTP %d %+v", code, job)
	}
	res := r.ResilienceSnapshot()
	for _, n := range nodes {
		if st := res.Breakers[n.Name]; st != BreakerClosed {
			t.Errorf("breaker of %s is %q after the poison bodies, want closed", n.Name, st)
		}
	}
}

// fakeClock is the cluster tests' one Clock. Its time moves when a test
// advances it and, with a step, on every read; a timer fires only when
// the test calls fire. Goroutine-safe: reaped hedge losers and a node's
// workers read it too.
type fakeClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	step    time.Duration
	pending []*fakeTimer
	armed   int // AfterFunc calls so far
}

type fakeTimer struct {
	c *fakeClock
	f func()
}

func newFakeClock() *fakeClock {
	c := &fakeClock{now: time.Unix(0, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// tickingClock is a fake clock on which every read costs step.
func tickingClock(step time.Duration) *fakeClock {
	c := newFakeClock()
	c.step = step
	return c
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *fakeClock) AfterFunc(_ time.Duration, f func()) clock.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{c: c, f: f}
	c.pending = append(c.pending, t)
	c.armed++
	c.cond.Broadcast()
	return t
}

func (c *fakeClock) Attempt(time.Time, float64) {}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	i := slices.Index(t.c.pending, t)
	if i >= 0 {
		t.c.pending = slices.Delete(t.c.pending, i, i+1)
	}
	return i >= 0
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) setStep(step time.Duration) {
	c.mu.Lock()
	c.step = step
	c.mu.Unlock()
}

// fire waits until a timer is armed and calls the first one armed.
func (c *fakeClock) fire() {
	c.mu.Lock()
	for len(c.pending) == 0 {
		c.cond.Wait()
	}
	t := c.pending[0]
	c.pending = c.pending[1:]
	c.mu.Unlock()
	t.f()
}

// heldHandler answers a solve with a done job once release is closed,
// and gives up without answering if the request is canceled first.
func heldHandler(id string, release <-chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		doneHandler(id).ServeHTTP(w, r)
	})
}

// fireThenRelease fires the hedge timer, waits until the router has
// refused its denied-th hedge for want of a retry token, then releases
// the held primary: the primary cannot answer before the hedge decision.
func fireThenRelease(clk *fakeClock, r *Router, denied uint64, release chan<- struct{}) {
	clk.fire()
	for r.ResilienceSnapshot().RetryBudgetDenied < denied {
		runtime.Gosched()
	}
	close(release)
}

// timersArmed reports how many timers were ever armed on the clock.
func (c *fakeClock) timersArmed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armed
}

// promValue reads one unlabeled sample of the router's /metrics.
func promValue(t *testing.T, prom []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(prom), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", name)
	return 0
}

// TestRouterCountsAgreeWithMetrics: after a re-route, a breaker skip, a
// hedge launched, a hedge denied by an empty retry budget and an expired
// client deadline, Counts, ResilienceSnapshot and /healthz report what
// /metrics exports — they read the same series.
func TestRouterCountsAgreeWithMetrics(t *testing.T) {
	release := make(chan struct{})
	slow := NewLocalBackend("slow", heldHandler("s", release))
	keyA, keyB := tinySpec(), server.MatrixSpec{Name: "laplace3d", Scale: 2e-5}
	shardA, _ := ShardKey(keyA)
	shardB, _ := ShardKey(keyB)
	clk := newFakeClock()
	r := New(Config{
		Backends: []*Backend{
			NewLocalBackend("failing", statusHandler(http.StatusInternalServerError, "boom")),
			slow,
			NewLocalBackend("fast", doneHandler("f")),
		},
		// keyA tries failing, fast, slow; keyB tries slow, fast, failing.
		ShardMap: &ShardMap{Assign: map[string]string{shardA: "failing", shardB: "slow"},
			Weights: map[string]float64{"fast": 1000}},
		Breaker:          BreakerConfig{Threshold: 1},
		RetryBudgetBurst: 2, // the re-route and the first hedge empty it
		Clock:            clk,
	})
	send := func(spec server.MatrixSpec, control string) (int, RoutedJob) {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t, spec)))
		if control != "" {
			req.Header.Set(server.SolveControlHeader, control)
		}
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, req)
		var job RoutedJob
		_ = json.Unmarshal(rec.Body.Bytes(), &job)
		return rec.Code, job
	}
	// A 500 from the first choice opens its breaker and re-routes; the
	// next solve of the key skips it.
	for i, hops := range []int{2, 1} {
		if code, job := send(keyA, ""); code != http.StatusOK || job.Backend != "fast" || job.Hops != hops {
			t.Fatalf("solve %d of the failing shard: HTTP %d backend %q hops %d, want fast in %d", i, code, job.Backend, job.Hops, hops)
		}
	}
	// The first hedge draws the last token; the second is denied and the
	// slow primary answers on its own.
	go clk.fire()
	if code, job := send(keyB, "hedge=on"); code != http.StatusOK || !job.Hedged {
		t.Fatalf("hedged solve: HTTP %d %+v", code, job)
	}
	go fireThenRelease(clk, r, 1, release)
	if code, job := send(keyB, "hedge=on"); code != http.StatusOK || job.Hedged || job.Backend != "slow" {
		t.Fatalf("solve with an empty budget: HTTP %d %+v, want the un-hedged primary", code, job)
	}
	clk.setStep(200 * time.Millisecond)
	if code, _ := send(keyA, "deadline-ms=100"); code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: HTTP %d, want 504", code)
	}
	clk.setStep(0)

	_, hbody := get(t, r, "/healthz")
	var hz ClusterHealthz
	if err := json.Unmarshal(hbody, &hz); err != nil {
		t.Fatal(err)
	}
	_, prom := get(t, r, "/metrics")
	solves, reroutes, rejects := r.Counts()
	res := r.ResilienceSnapshot()
	for _, row := range []struct {
		series           string
		accessor, health float64
		atLeast          float64
	}{
		{"router_solves_total", float64(solves), float64(hz.RoutedSolves), 4},
		{"router_reroutes_total", float64(reroutes), float64(hz.Reroutes), 1},
		{"router_rejects_total", float64(rejects), float64(hz.Rejects), 1},
		{"router_hedges_total", float64(res.Hedges), float64(hz.Resilience.Hedges), 1},
		{"router_hedge_wins_total", float64(res.HedgeWins), float64(hz.Resilience.HedgeWins), 1},
		{"router_breaker_skips_total", float64(res.BreakerSkips), float64(hz.Resilience.BreakerSkips), 1},
		{"router_deadline_expired_total", float64(res.DeadlineExpired), float64(hz.Resilience.DeadlineExpired), 1},
		{"router_retry_budget_exhausted_total", float64(res.RetryBudgetDenied), float64(hz.Resilience.RetryBudgetDenied), 1},
		{"router_reroutes_total+router_hedges_total", float64(res.RetryBudgetSpent), float64(hz.Resilience.RetryBudgetSpent), 2},
		{"router_retry_budget_tokens", res.RetryBudgetTokens, hz.Resilience.RetryBudgetTokens, 0},
		{"router_breaker_open_total", 1, 1, 1},
		{fmt.Sprintf(`host_kernels_info{goarch=%q,simd=%q}`, runtime.GOARCH, hz.SIMD), 1, 1, 1},
	} {
		want := 0.0
		for _, series := range strings.Split(row.series, "+") {
			want += promValue(t, prom, series)
		}
		if row.accessor != want || row.health != want || want < row.atLeast {
			t.Errorf("%s = %v, accessor %v, /healthz %v; want all equal and at least %v",
				row.series, want, row.accessor, row.health, row.atLeast)
		}
	}
}

// TestBreakerSeriesWrittenAtTransition: a threshold-3 breaker driven
// through closed, open, half-open, open, half-open and closed shows each
// state on /metrics — router_breaker_state{backend} and
// router_breaker_open_total — as soon as it happens, with no /healthz in
// between, and concurrent scrapes leave the open counter where it is.
// Failures below the threshold keep it closed, and Allow refuses inside
// the cooldown and while the one half-open probe is out.
func TestBreakerSeriesWrittenAtTransition(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{
		Backends: []*Backend{NewLocalBackend("x", doneHandler("x"))},
		Breaker:  BreakerConfig{Threshold: 3, Cooldown: 5},
		Clock:    clk,
	})
	br := r.breakers["x"]
	gauge := map[string]float64{BreakerClosed: 0, BreakerHalfOpen: 1, BreakerOpen: 2}
	opens := 0.0
	check := func(step string) {
		t.Helper()
		_, prom := get(t, r, "/metrics")
		if got, want := promValue(t, prom, `router_breaker_state{backend="x"}`), gauge[br.State()]; got != want {
			t.Errorf("%s: router_breaker_state %v, want %v (%s)", step, got, want, br.State())
		}
		if got := promValue(t, prom, "router_breaker_open_total"); got != opens {
			t.Errorf("%s: router_breaker_open_total %v, want %v", step, got, opens)
		}
	}
	// allow advances the clock by dt seconds and asks the breaker for a
	// forward.
	allow := func(dt int, want bool) func() {
		return func() {
			clk.advance(time.Duration(dt) * time.Second)
			if got := br.Allow(); got != want {
				t.Errorf("Allow %ds on = %v, want %v", dt, got, want)
			}
		}
	}
	check("new")
	for i, step := range []struct {
		name  string
		drive func()
		opens bool
		state string
	}{
		{"failure 1", br.Failure, false, BreakerClosed},
		{"failure 2", br.Failure, false, BreakerClosed},
		{"failure 3", br.Failure, true, BreakerOpen},
		{"inside cooldown", allow(3, false), false, BreakerOpen},
		{"probe", allow(3, true), false, BreakerHalfOpen},
		{"probe out", allow(0, false), false, BreakerHalfOpen},
		{"failed probe", br.Failure, true, BreakerOpen},
		{"second probe", allow(6, true), false, BreakerHalfOpen},
		{"success", br.Success, false, BreakerClosed},
		{"traffic", allow(0, true), false, BreakerClosed},
	} {
		step.drive()
		if step.opens {
			opens++
		}
		if br.State() != step.state {
			t.Fatalf("step %d (%s): breaker %s, want %s", i, step.name, br.State(), step.state)
		}
		check(step.name)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, r, "/metrics")
		}()
	}
	wg.Wait()
	check("after 8 concurrent scrapes")
}

// TestRefusedForwardReleasesProbe: a forward the router refuses after the
// candidate's breaker admitted its half-open probe — the retry budget is
// empty, or the client deadline ran out — frees that probe. The healthy
// backend is probed on the next solve, and its success closes the
// circuit. (A leaked probe kept it half-open and excluded, and a solve
// pinned to it got 503 shard_unavailable until an admin revive.)
func TestRefusedForwardReleasesProbe(t *testing.T) {
	for _, tc := range []struct {
		name, control string
		drain         bool          // take the one retry token first
		step          time.Duration // clock cost of each read during the refused solve
		status        int
		code          string
	}{
		{"retry-budget", "", true, 0, http.StatusServiceUnavailable, codeRetryBudgetExhausted},
		// The deadline check at x passes (200 ms used of 300), the one at a
		// does not.
		{"deadline", "deadline-ms=300", false, 200 * time.Millisecond, http.StatusGatewayTimeout, codeDeadlineExhausted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			r := New(Config{
				Backends: []*Backend{
					NewLocalBackend("x", statusHandler(http.StatusTooManyRequests, "queue_full")),
					NewLocalBackend("a", doneHandler("a")),
				},
				MaxHops:          2,
				ShardMap:         pinned(t, "x"), // ranks x, a
				Breaker:          BreakerConfig{Threshold: 100, Cooldown: 1},
				RetryBudgetBurst: 1,
				Clock:            clk,
			})
			br := r.breakers["a"]
			br.Trip()
			clk.advance(2 * time.Second) // past a's cooldown: one probe
			if tc.drain && !r.budget.Take() {
				t.Fatal("could not take the one retry token")
			}
			clk.setStep(tc.step)
			req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t, tinySpec())))
			if tc.control != "" {
				req.Header.Set(server.SolveControlHeader, tc.control)
			}
			rec := httptest.NewRecorder()
			r.ServeHTTP(rec, req)
			clk.setStep(0)
			var e obs.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != tc.status || e.Code != tc.code {
				t.Fatalf("refused solve: HTTP %d %s, want %d %s", rec.Code, rec.Body.Bytes(), tc.status, tc.code)
			}
			if !br.Peek() {
				t.Fatalf("the refused forward leaked a's probe: breaker %s, Peek false", br.State())
			}
			r.shardMap = pinned(t, "a")
			if code, job, _ := post(t, r, solveBody(t, tinySpec())); code != http.StatusOK || job.Backend != "a" {
				t.Fatalf("solve pinned to a: HTTP %d %+v", code, job)
			}
			if st := br.State(); st != BreakerClosed {
				t.Errorf("a's successful probe left its breaker %s, want closed", st)
			}
		})
	}
}

// TestLocalNodeSLORunsOnSchedClock: a node's SLO engine runs on its
// scheduler's clock, so a finished solve counts in the budget window
// until that clock passes the window, and then drops out of it.
func TestLocalNodeSLORunsOnSchedClock(t *testing.T) {
	clk := newFakeClock()
	node := NewLocalNode(LocalNodeConfig{Name: "n", Devices: 2,
		SLO: obs.SLOConfig{BudgetWindow: 60}, Sched: sched.Config{Clock: clk}})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = node.Drain(ctx)
	})
	if code, job, _ := post(t, node.Server, solveBody(t, tinySpec())); code != http.StatusOK || job.State != "done" {
		t.Fatalf("solve: HTTP %d %+v", code, job)
	}
	requests := func() int {
		n := 0
		for _, c := range node.Sched.SLO().Report().Classes {
			n += c.Requests
		}
		return n
	}
	if n := requests(); n != 1 {
		t.Fatalf("budget window holds %d requests after one solve, want 1", n)
	}
	clk.advance(61 * time.Second)
	if n := requests(); n != 0 {
		t.Errorf("budget window holds %d requests 61 s after the solve on the scheduler's clock, want 0", n)
	}
}
