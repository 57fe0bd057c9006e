package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/sched"
	"cagmres/internal/sparse"
)

// healthzSeries is the agreement table: every /healthz key that counts
// or gauges something, and the /metrics series that must read the same.
var healthzSeries = map[string]string{
	"pool_size":                `sched_pool_size`,
	"pool_in_use":              `sched_pool_in_use`,
	"pool_workspace_bytes":     `sched_pool_workspace_bytes`,
	"queue_depth":              `sched_queue_depth`,
	"brownout_level":           `sched_brownout_level`,
	"rejected":                 `sched_rejections_total`,
	"leases":                   `sched_leases_total`,
	"evictions":                `sched_context_evictions_total`,
	"readmissions":             `sched_context_readmissions_total`,
	"devices_lost":             `sched_faults_injected_total{kind="death"}`,
	"transfer_faults":          `sched_faults_injected_total{kind="transfer"}`,
	"transfer_retries":         `sched_transfer_retries_total`,
	"requeues":                 `sched_job_requeues_total`,
	"lease_timeouts":           `sched_lease_timeouts_total`,
	"repartitions":             `sched_repartitions_total`,
	"checkpoint_restores":      `sched_checkpoint_restores_total`,
	"shed_brownout":            `sched_shed_total{reason="brownout"}`,
	"shed_deadline_infeasible": `sched_shed_total{reason="deadline_infeasible"}`,
	"shed_deadline_expired":    `sched_shed_total{reason="deadline_expired"}`,
	"prepared_hits":            `sched_prepared_problems_total{result="hit"}`,
	"prepared_misses":          `sched_prepared_problems_total{result="miss"}`,
	"prepared_evictions":       `sched_prepared_problems_total{result="evict"}`,
}

// healthzUnexported are the /healthz keys no series carries as a value:
// flags, names, the SLO report, the healthy-context count, dispatched —
// the one event tally without a series (sched_jobs_total counts jobs at
// their end, by state) — and simd, which is a label of host_kernels_info
// (assertHealthzMatchesMetrics checks that one by name).
var healthzUnexported = []string{"ok", "profile", "topology", "draining", "degraded",
	"pool_healthy", "dispatched", "slo_degraded", "slo", "simd"}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d, %v", url, resp.StatusCode, err)
	}
	return data
}

// seriesValue reads one sample of a Prometheus exposition: series is the
// family name plus its label set, as the line spells it.
func seriesValue(t *testing.T, prom []byte, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(prom), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// healthzNumbers fetches /healthz and returns its numeric fields by key,
// failing on a key that is in neither healthzSeries nor healthzUnexported.
func healthzNumbers(t *testing.T, base string) map[string]float64 {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(fetch(t, base+"/healthz"), &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for key, v := range doc {
		if _, ok := healthzSeries[key]; ok {
			out[key] = v.(float64)
		} else if !slices.Contains(healthzUnexported, key) {
			t.Fatalf("/healthz key %q is in neither the agreement table nor its exceptions", key)
		}
	}
	return out
}

// assertHealthzMatchesMetrics checks every row of healthzSeries on a
// quiescent daemon and returns the /healthz numbers.
func assertHealthzMatchesMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	hz := healthzNumbers(t, base)
	prom := fetch(t, base+"/metrics")
	for key, series := range healthzSeries {
		got, ok := hz[key]
		if !ok {
			t.Errorf("/healthz lacks %q", key)
		} else if want := seriesValue(t, prom, series); got != want {
			t.Errorf("/healthz %s = %v, /metrics %s = %v", key, got, series, want)
		}
	}
	var doc struct {
		SIMD string `json:"simd"`
	}
	if err := json.Unmarshal(fetch(t, base+"/healthz"), &doc); err != nil {
		t.Fatal(err)
	}
	if series := fmt.Sprintf(`host_kernels_info{goarch=%q,simd=%q}`, runtime.GOARCH, doc.SIMD); seriesValue(t, prom, series) != 1 {
		t.Errorf("/metrics %s is not 1", series)
	}
	return hz
}

// TestHealthzWireKeys pins the key set of /healthz: sched.Snapshot's
// tags plus the server's own fields: the 31 keys the daemon has always
// answered with, and simd.
func TestHealthzWireKeys(t *testing.T) {
	h := newHarness(t, 16)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(fetch(t, h.ts.URL+"/healthz"), &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range doc {
		got = append(got, key)
	}
	slices.Sort(got)
	want := []string{
		"brownout_level", "checkpoint_restores", "degraded", "devices_lost", "dispatched",
		"draining", "evictions", "lease_timeouts", "leases", "ok", "pool_healthy",
		"pool_in_use", "pool_size", "pool_workspace_bytes", "prepared_evictions",
		"prepared_hits", "prepared_misses", "profile", "queue_depth", "readmissions",
		"rejected", "repartitions", "requeues", "shed_brownout", "shed_deadline_expired",
		"shed_deadline_infeasible", "simd", "slo", "slo_degraded", "topology", "transfer_faults",
		"transfer_retries",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("/healthz keys\n got %v\nwant %v", got, want)
	}
}

// rejection is one non-2xx answer, decoded strictly: a field outside
// obs.ErrorBody fails the test.
type rejection struct {
	status     int
	retryAfter string // the Retry-After header
	hinted     bool   // the body carries retry_after_seconds
	body       obs.ErrorBody
}

func decodeRejection(t *testing.T, status int, hdr http.Header, data []byte) rejection {
	t.Helper()
	rej := rejection{status: status, retryAfter: hdr.Get("Retry-After"),
		hinted: bytes.Contains(data, []byte(`"retry_after_seconds"`))}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rej.body); err != nil {
		t.Fatalf("HTTP %d body %s is not an obs.ErrorBody: %v", status, data, err)
	}
	if rej.body.Code == "" || rej.body.Error == "" {
		t.Fatalf("HTTP %d body %s lacks code or error", status, data)
	}
	return rej
}

func (h *testHarness) postRejected(t *testing.T, req SolveRequest) rejection {
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
	return decodeRejection(t, resp.StatusCode, resp.Header, data)
}

// containmentRun drives one daemon through every admission rejection and
// every fault-recovery path the scheduler counts, and returns it
// quiescent with the rejections it answered, by code. The pool's two
// contexts carry the seeded plans of the sched chaos tests: one exhausts
// the transfer-retry policy once (the job is re-queued), the other loses
// a device at virtual time zero (the solve re-partitions, the context is
// evicted, repaired and readmitted).
func containmentRun(t *testing.T) (*testHarness, map[string]rejection) {
	t.Helper()
	reg := obs.NewRegistry()
	pool := sched.NewPool(sched.PoolConfig{Size: 2, Devices: 2, Repair: true,
		FaultPlans: []gpu.FaultPlan{
			{Seed: 1, TransferFaultProb: 1, MaxTransferFaults: 4},
			{Deaths: []gpu.DeviceDeath{{Device: 1, At: 0}}},
		}})
	s := sched.New(sched.Config{Pool: pool, QueueDepth: 1, Registry: reg,
		LeaseTimeout: 300 * time.Millisecond, DeadlineMargin: 1000,
		Brownout: &sched.BrownoutConfig{Ladder: []int{1}}})
	h := &testHarness{ts: httptest.NewServer(New(s, reg)), sched: s, reg: reg}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		h.ts.Close()
	})
	n := testN(t)
	got := map[string]rejection{}
	reject := func(req SolveRequest) {
		rej := h.postRejected(t, req)
		got[rej.body.Code] = rej
	}

	// Before the workers start: a job whose deadline expires in the queue
	// fills the depth-1 queue, so the next submission is refused.
	doomed := solveReq(n, 0, false)
	doomed.DeadlineMS = 1
	if code, _, _ := h.post(t, doomed); code != http.StatusAccepted {
		t.Fatalf("queued submit: status %d", code)
	}
	reject(solveReq(n, 1, false)) // 429 queue_full
	// The doomed job's 1 ms deadline passes; nothing is synchronised on
	// this sleep.
	time.Sleep(10 * time.Millisecond)
	s.Start()
	// The first solve would meet the still-full depth-1 queue: wait until
	// a worker has taken the doomed job out and shed it.
	deadline := time.Now().Add(30 * time.Second)
	for hz := healthzNumbers(t, h.ts.URL); hz["shed_deadline_expired"] < 1 || hz["queue_depth"] != 0; hz = healthzNumbers(t, h.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("the doomed job never left the queue: %v", hz)
		}
		time.Sleep(time.Millisecond)
	}

	// Solves until both fault plans have fired and the repaired context is
	// back (eviction happens on release, after the job answers).
	for c := 0; ; c++ {
		if code, _, _ := h.post(t, solveReq(n, c, true)); code != http.StatusOK {
			t.Fatalf("solve %d: status %d", c, code)
		}
		hz := healthzNumbers(t, h.ts.URL)
		if hz["requeues"] >= 1 && hz["readmissions"] >= 1 && hz["shed_deadline_expired"] >= 1 && hz["pool_in_use"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fault plans never fired: %v", hz)
		}
	}
	// A hopeless solve holds its lease until the lease timeout cancels it.
	stuck := solveReq(n, 0, true)
	stuck.Tol, stuck.MaxRestarts = 1e-30, 1<<20
	if code, job, _ := h.post(t, stuck); code != http.StatusOK || !job.Canceled {
		t.Fatalf("stuck solve: status %d, job %+v", code, job)
	}
	// The service estimate is primed now: a 1 ms deadline cannot cover it.
	reject(doomed) // 422 deadline_infeasible
	// Burn the interactive class's budget; brownout sheds priority 0.
	for i := 0; i < 20; i++ {
		s.SLO().Observe(2, 10, true)
	}
	reject(solveReq(n, 2, false)) // 503 brownout_shed
	for hz := healthzNumbers(t, h.ts.URL); hz["pool_in_use"] != 0; hz = healthzNumbers(t, h.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never went quiescent: %v", hz)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return h, got
}

// TestRejectionsAreErrorBodies: every rejection of the daemon — 400, 429,
// 503 (draining and brownout), 422, and the 413 of TestSolveBodyLimit,
// which decodes it the same way — is an obs.ErrorBody and nothing more,
// and the retry hint (retry_after_seconds in the body, the Retry-After
// header) is present exactly on 429 queue_full and 503 brownout_shed.
func TestRejectionsAreErrorBodies(t *testing.T) {
	h, got := containmentRun(t)
	bad := solveReq(testN(t), 0, false)
	bad.Ordering = "sorted"
	got[obs.CodeBadRequest] = h.postRejected(t, bad)
	if err := h.sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	late := solveReq(testN(t), 0, false)
	late.Priority = 1 // above the brownout rung: the drain gate is what refuses it
	got[codeDraining] = h.postRejected(t, late)

	want := map[string]int{
		obs.CodeBadRequest:     http.StatusBadRequest,
		codeQueueFull:          http.StatusTooManyRequests,
		codeBrownoutShed:       http.StatusServiceUnavailable,
		codeDraining:           http.StatusServiceUnavailable,
		codeDeadlineInfeasible: http.StatusUnprocessableEntity,
	}
	if len(got) != len(want) {
		t.Fatalf("rejections seen %v, want the codes of %v", got, want)
	}
	for code, status := range want {
		rej := got[code]
		if rej.status != status {
			t.Errorf("%s: HTTP %d, want %d", code, rej.status, status)
		}
		hint := code == codeQueueFull || code == codeBrownoutShed
		if rej.hinted != hint || (rej.retryAfter != "") != hint || (rej.body.RetryAfterSeconds > 0) != hint {
			t.Errorf("%s: retry_after_seconds %v (present %t), Retry-After %q; want a hint: %t",
				code, rej.body.RetryAfterSeconds, rej.hinted, rej.retryAfter, hint)
		}
	}
}

// TestDecodeStageRejections: the decode stage returns each bad-request
// cause and the 413 with the message clients have always seen, and
// writes nothing itself.
func TestDecodeStageRejections(t *testing.T) {
	srv := New(sched.New(sched.Config{Pool: sched.NewPool(sched.PoolConfig{Size: 1, Devices: 2})}), nil)
	tiny := `"matrix":{"name":"laplace3d","scale":1e-5}`
	cases := []struct {
		name, control, body string
		status              int
		code, msg           string
	}{
		{"control header", "bogus=1", `{` + tiny + `}`, 400, obs.CodeBadRequest,
			`solve-control: unknown directive "bogus"`},
		{"body", "", `{not json`, 400, obs.CodeBadRequest,
			`bad request body: invalid character 'n' looking for beginning of object key string`},
		{"solver", "", `{` + tiny + `,"solver":"bicgstab"}`, 400, obs.CodeBadRequest,
			`core: unknown solver "bicgstab"`},
		{"matrix", "", `{"matrix":{}}`, 400, obs.CodeBadRequest,
			`matrix: matrix spec needs name or matrixmarket`},
		{"rhs", "", `{` + tiny + `,"rhs":"zeros"}`, 400, obs.CodeBadRequest,
			`unknown rhs "zeros"`},
		{"ordering", "", `{` + tiny + `,"ordering":"sorted"}`, 400, obs.CodeBadRequest,
			`core: unknown ordering "sorted"`},
		{"precision", "", `{` + tiny + `,"precision":"fp16"}`, 400, obs.CodeBadRequest,
			`core: unknown precision "fp16" (want fp64, mixed or adaptive)`},
		{"profile", "", `{` + tiny + `,"profile":{"base":"k20"}}`, 400, obs.CodeBadRequest,
			`profile: unknown profile "k20" (have a100-pcie, h100-nvlink, m2090)`},
		{"ortho", "", `{` + tiny + `,"ortho":"bogus"}`, 400, obs.CodeBadRequest,
			`ortho: unknown strategy "bogus"`},
		{"borth", "", `{` + tiny + `,"borth":"bogus"}`, 400, obs.CodeBadRequest,
			`ortho: unknown BOrth variant "bogus"`},
		{"basis", "", `{` + tiny + `,"basis":"bogus"}`, 400, obs.CodeBadRequest,
			`core: unknown basis "bogus"`},
		{"s above m", "", `{` + tiny + `,"m":30,"s":40}`, 400, obs.CodeBadRequest,
			`core: step size s=40 out of range for m=30`},
		{"s below 1", "", `{` + tiny + `,"s":-1}`, 400, obs.CodeBadRequest,
			`core: step size s=-1 out of range for m=30`},
		{"m below 1", "", `{` + tiny + `,"m":-1}`, 400, obs.CodeBadRequest,
			`core: restart length m=-1, want at least 1`},
		{"m above n", "", `{` + tiny + `,"m":65}`, 400, obs.CodeBadRequest,
			`core: restart length m=65 exceeds n=64`},
		{"gmres ortho", "", `{` + tiny + `,"solver":"gmres","ortho":"CholQR"}`, 400, obs.CodeBadRequest,
			`core: GMRES supports Ortho MGS or CGS, got "CholQR"`},
		{"gmres precision", "", `{` + tiny + `,"solver":"gmres","precision":"mixed"}`, 400, obs.CodeBadRequest,
			`core: GMRES supports only fp64 precision, got "mixed"`},
		{"non-square", "", `{"matrix":{"matrixmarket":"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"}}`,
			400, obs.CodeBadRequest, `core: matrix must be square, got 2x3`},
		{"oversized", "", strings.Repeat(" ", MaxBodyBytes+1), 413, obs.CodeRequestTooLarge,
			`http: request body too large`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(tc.body))
		if tc.control != "" {
			req.Header.Set(SolveControlHeader, tc.control)
		}
		rec := httptest.NewRecorder()
		_, _, rej := srv.decode(rec, req)
		if rej == nil {
			t.Errorf("%s: decode accepted the request", tc.name)
			continue
		}
		if rej.status != tc.status || rej.body != (obs.ErrorBody{Code: tc.code, Error: tc.msg}) {
			t.Errorf("%s: HTTP %d %+v, want %d %s %q", tc.name, rej.status, rej.body, tc.status, tc.code, tc.msg)
		}
		if rec.Body.Len() != 0 || len(rec.Header()) != 0 || rec.Flushed {
			t.Errorf("%s: decode wrote a response: headers %v body %q", tc.name, rec.Header(), rec.Body.String())
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(`{`+tiny+`,"priority":3}`))
	if got, spec, rej := srv.decode(httptest.NewRecorder(), req); rej != nil || got.Priority != 3 || spec.Matrix == nil {
		t.Fatalf("decode of a good request: %+v, spec %+v, rejection %+v", got, spec, rej)
	}
}

// matrixCacheSeries reads the three server_matrix_cache_total series.
func matrixCacheSeries(t *testing.T, h *testHarness) (hit, miss, evict float64) {
	t.Helper()
	prom := fetch(t, h.ts.URL+"/metrics")
	series := func(result string) float64 {
		return seriesValue(t, prom, fmt.Sprintf(`server_matrix_cache_total{result=%q}`, result))
	}
	return series("hit"), series("miss"), series("evict")
}

// TestMatrixCacheIsBounded: one more distinct inline matrix than the
// cache holds evicts exactly one entry (every miss inserts one, so
// misses − evictions entries remain: the bound), and a body that fails
// to parse is dropped again instead of staying cached.
func TestMatrixCacheIsBounded(t *testing.T) {
	h := newHarness(t, 16)
	for i := 0; i <= sched.CacheSize; i++ {
		var mm bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, matgen.Laplace3D(4, 4, 4, 0.1+0.01*float64(i))); err != nil {
			t.Fatal(err)
		}
		req := SolveRequest{Matrix: MatrixSpec{MatrixMarket: mm.String()}, M: 20, S: 5, Tol: 1e-8, Wait: true}
		if code, job, _ := h.post(t, req); code != http.StatusOK || !job.Converged {
			t.Fatalf("inline matrix %d: status %d, job %+v", i, code, job)
		}
	}
	if hit, miss, evict := matrixCacheSeries(t, h); hit != 0 || miss != sched.CacheSize+1 || evict != 1 {
		t.Fatalf("hit/miss/evict = %v/%v/%v after %d distinct matrices, want 0/%d/1",
			hit, miss, evict, sched.CacheSize+1, sched.CacheSize+1)
	}
	for i := 0; i < 3; i++ {
		rej := h.postRejected(t, SolveRequest{Matrix: MatrixSpec{MatrixMarket: "this is not a matrix"}})
		if rej.status != http.StatusBadRequest {
			t.Fatalf("bad body: HTTP %d", rej.status)
		}
	}
	// Each bad body missed and was dropped again, so none is resident;
	// the first one's short-lived entry displaced the least recently used
	// matrix of the full cache, which leaves one slot free.
	if _, miss, evict := matrixCacheSeries(t, h); miss-evict != sched.CacheSize-1 || evict != 1+1+3 {
		t.Fatalf("after 3 bad bodies miss/evict = %v/%v, want %d entries and 5 evictions",
			miss, evict, sched.CacheSize-1)
	}
}

// TestMatrixCacheBuildsOnce: concurrent first requests for one generator
// wait for a single build and share its matrix.
func TestMatrixCacheBuildsOnce(t *testing.T) {
	h := newHarness(t, 16)
	n := testN(t)
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if code, _, _ := h.post(t, solveReq(n, c, true)); code != http.StatusOK {
				t.Errorf("client %d: status %d", c, code)
			}
		}(c)
	}
	wg.Wait()
	if hit, miss, evict := matrixCacheSeries(t, h); hit != clients-1 || miss != 1 || evict != 0 {
		t.Fatalf("hit/miss/evict = %v/%v/%v for %d concurrent first requests, want %d/1/0",
			hit, miss, evict, clients, clients-1)
	}
}

// unread is a request body that fails the test if anything reads it.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}

// TestDecodeBodyFraming: decode reads a body of declared length, one of
// unknown length (chunked) and one declared past the eager buffer to the
// same request; refuses a declared length over MaxBodyBytes with the 413
// of an over-long body without reading it; and refuses a body that ends
// before or runs past its declared length.
func TestDecodeBodyFraming(t *testing.T) {
	srv := New(sched.New(sched.Config{Pool: sched.NewPool(sched.PoolConfig{Size: 1, Devices: 2})}), nil)
	body := `{"matrix":{"name":"laplace3d","scale":1e-5},"priority":3}`
	long := strings.Repeat(" ", eagerBodyBytes) + body
	for _, tc := range []struct {
		body   string
		length int64
	}{{body, int64(len(body))}, {body, -1}, {long, int64(len(long))}} {
		req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(tc.body))
		req.ContentLength = tc.length
		if got, spec, rej := srv.decode(httptest.NewRecorder(), req); rej != nil || got.Priority != 3 || spec.Matrix == nil {
			t.Fatalf("%d bytes, length %d: %+v, spec %+v, rejection %+v", len(tc.body), tc.length, got, spec, rej)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/solve", unread{t})
	req.ContentLength = MaxBodyBytes + 1
	_, _, rej := srv.decode(httptest.NewRecorder(), req)
	if rej == nil || rej.status != http.StatusRequestEntityTooLarge ||
		rej.body != (obs.ErrorBody{Code: obs.CodeRequestTooLarge, Error: "http: request body too large"}) {
		t.Fatalf("declared length over the limit: %+v", rej)
	}

	for _, length := range []int64{int64(len(body)) + 1, int64(len(body)) - 1} {
		req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body))
		req.ContentLength = length
		if _, _, rej := srv.decode(httptest.NewRecorder(), req); rej == nil || rej.status != http.StatusBadRequest {
			t.Fatalf("body of %d bytes declared %d: %+v, want a 400", len(body), length, rej)
		}
	}
}
