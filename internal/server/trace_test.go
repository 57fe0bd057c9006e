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

const testTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
const testTraceID = "0af7651916cd43dd8448eb211c80319c"

// newTraceHarness is newHarness with the pool's event-trace ring enabled,
// so /jobs/{id}/trace.json has device lanes to stitch.
func newTraceHarness(t *testing.T) *testHarness {
	t.Helper()
	reg := obs.NewRegistry()
	pool := sched.NewPool(sched.PoolConfig{
		Size: 2, Devices: 2, TraceEvents: 1 << 14,
	})
	s := sched.New(sched.Config{Pool: pool, QueueDepth: 16, Registry: reg})
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

// postTraced POSTs a solve with a traceparent header.
func postTraced(t *testing.T, h *testHarness, req SolveRequest, traceparent string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", h.ts.URL+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("traceparent", traceparent)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSolveTraceparentRoundTrip is the issue's acceptance path over HTTP:
// the caller's trace id survives header → job → trace.json/spans.jsonl,
// and the exported device lanes reconcile with the job's ledger exactly.
func TestSolveTraceparentRoundTrip(t *testing.T) {
	h := newTraceHarness(t)
	n := testN(t)

	resp, data := postTraced(t, h, solveReq(n, 0, true), testTraceparent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	tid, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || tid != testTraceID {
		t.Fatalf("response traceparent %q does not carry trace %s", resp.Header.Get("traceparent"), testTraceID)
	}
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	if job.TraceID != testTraceID {
		t.Fatalf("job trace_id %q, want %q", job.TraceID, testTraceID)
	}
	if job.State != "done" || !job.Converged {
		t.Fatalf("job = %+v", job)
	}

	// trace.json: a Chrome export with device lanes, echoing the trace id.
	resp2, err := http.Get(h.ts.URL + "/jobs/" + job.ID + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	traceData, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("trace.json status %d: %s", resp2.StatusCode, traceData)
	}
	if tid, _, ok := obs.ParseTraceparent(resp2.Header.Get("traceparent")); !ok || tid != testTraceID {
		t.Fatalf("trace.json traceparent %q", resp2.Header.Get("traceparent"))
	}
	var tf gpu.ChromeTrace
	if err := json.Unmarshal(traceData, &tf); err != nil {
		t.Fatalf("trace.json is not a trace file: %v", err)
	}
	haveDeviceLane, haveQueue := false, false
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Pid == 1 && strings.HasPrefix(toString(ev.Args["name"]), "device ") {
			haveDeviceLane = true
		}
		if ev.Ph == "X" && ev.Pid == 0 && ev.Name == "queue" {
			haveQueue = true
		}
	}
	if !haveDeviceLane || !haveQueue {
		t.Fatalf("trace.json missing lanes: device=%t queue=%t", haveDeviceLane, haveQueue)
	}

	// The job's attached ledger reconciles to the nanosecond.
	sj, ok := h.sched.Job(job.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if err := obs.ReconcileDeviceLanes(sj.Trace().Stats()); err != nil {
		t.Fatal(err)
	}

	// spans.jsonl lints clean and shares the adopted trace id.
	resp3, err := http.Get(h.ts.URL + "/jobs/" + job.ID + "/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	spanData, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("spans.jsonl status %d", resp3.StatusCode)
	}
	spans, err := obs.LintSpans(spanData)
	if err != nil {
		t.Fatalf("spans.jsonl fails lint: %v\n%s", err, spanData)
	}
	if spans[0].TraceID != testTraceID {
		t.Fatalf("span stream trace %q, want %q", spans[0].TraceID, testTraceID)
	}

	// Unknown sub-resource: structured 404.
	resp4, err := http.Get(h.ts.URL + "/jobs/" + job.ID + "/bogus")
	if err != nil {
		t.Fatal(err)
	}
	errData, _ := io.ReadAll(resp4.Body)
	resp4.Body.Close()
	var e struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if resp4.StatusCode != http.StatusNotFound || json.Unmarshal(errData, &e) != nil || e.Code == "" {
		t.Fatalf("bogus sub-resource: status %d body %s", resp4.StatusCode, errData)
	}
}

func toString(v any) string {
	s, _ := v.(string)
	return s
}

// TestSolveRejectionEchoesTraceparent: even a 400 carries the caller's
// trace id back, with a structured error body.
func TestSolveRejectionEchoesTraceparent(t *testing.T) {
	h := newTraceHarness(t)
	hr, err := http.NewRequest("POST", h.ts.URL+"/solve", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if tid, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent")); !ok || tid != testTraceID {
		t.Fatalf("rejection lost the trace: header %q", resp.Header.Get("traceparent"))
	}
	var e struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Code == "" || e.Error == "" {
		t.Fatalf("rejection body not structured: %s", data)
	}
}

// TestSLOEndpoint: /slo serves the engine report, /healthz carries the
// degraded bit, and non-GET is refused with a structured error.
func TestSLOEndpoint(t *testing.T) {
	h := newTraceHarness(t)
	n := testN(t)
	if code, _, _ := h.post(t, solveReq(n, 0, true)); code != http.StatusOK {
		t.Fatalf("solve status %d", code)
	}

	resp, err := http.Get(h.ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/slo status %d: %s", resp.StatusCode, data)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range rep.Classes {
		total += c.Requests
	}
	if len(rep.Classes) == 0 || total != 1 {
		t.Fatalf("/slo report %+v, want 1 observed request", rep)
	}

	resp2, err := http.Post(h.ts.URL+"/slo", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	errData, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var e struct {
		Code string `json:"code"`
	}
	if resp2.StatusCode != http.StatusMethodNotAllowed || json.Unmarshal(errData, &e) != nil || e.Code == "" {
		t.Fatalf("POST /slo: status %d body %s", resp2.StatusCode, errData)
	}

	resp3, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hData, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	var hz Healthz
	if err := json.Unmarshal(hData, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.SLO == nil || len(hz.SLO.Classes) == 0 {
		t.Fatalf("/healthz has no SLO report: %s", hData)
	}
	if hz.SLODegraded {
		t.Fatalf("healthy service reports slo_degraded: %s", hData)
	}
}
