package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cagmres/internal/gpu"
)

// ledgerWorkload drives a small mixed workload through a traced context
// so the bridge tests have a realistic Stats + event trace to fold in.
func ledgerWorkload(t *testing.T) *gpu.Context {
	t.Helper()
	ctx := gpu.NewContext(2, gpu.M2090())
	ctx.Stats().EnableTrace(1 << 8)
	ctx.Launch("spmv", func(int) gpu.Work { return gpu.Work{Flops: 2e6, Bytes: 1e6} })
	ctx.DeviceKernelOn("tsqr", []gpu.Work{{Flops: 3e6, Bytes: 5e5}, {Flops: 1e6, Bytes: 2e5}})
	ctx.HaloExchangeElemOn("orth", []int{4096, 8192}, []int{1024, 1024}, nil, gpu.Elem64)
	ctx.HostComputeOn("lsq", 1e5)
	return ctx
}

func TestCollectStats(t *testing.T) {
	ctx := ledgerWorkload(t)
	s := ctx.Stats()
	r := NewRegistry()
	CollectStats(r, s)

	spmv := s.Phase("spmv")
	if v := r.CounterL("gpu_phase_device_seconds_total", "", L("phase", "spmv")).Value(); v != spmv.DeviceTime {
		t.Fatalf("spmv device seconds %v != ledger %v", v, spmv.DeviceTime)
	}
	orth := s.Phase("orth")
	if v := r.CounterL("gpu_phase_bytes_total", "", L("phase", "orth", "dir", "d2h")).Value(); v != float64(orth.BytesD2H) {
		t.Fatalf("orth d2h bytes %v != ledger %d", v, orth.BytesD2H)
	}
	if v := r.CounterL("gpu_phase_kernels_total", "", L("phase", "tsqr")).Value(); v != 1 {
		t.Fatalf("tsqr kernels = %v, want 1 launch", v)
	}
	// Per-device kernel seconds must reproduce DevicePhase exactly, and
	// sum over devices must cover at least the critical path.
	for d := 0; d < s.TrackedDevices(); d++ {
		for _, ph := range []string{"spmv", "tsqr"} {
			want := s.DevicePhase(d, ph).DeviceTime
			got := r.CounterL("gpu_device_kernel_seconds_total", "",
				L("device", devLabel(d), "phase", ph)).Value()
			if got != want {
				t.Fatalf("device %d %s: %v != %v", d, ph, got, want)
			}
		}
	}
	perDev := 0.0
	for d := 0; d < s.TrackedDevices(); d++ {
		perDev = math.Max(perDev, s.DevicePhase(d, "tsqr").DeviceTime)
	}
	if perDev != s.Phase("tsqr").DeviceTime {
		t.Fatalf("max per-device %v != aggregate critical path %v", perDev, s.Phase("tsqr").DeviceTime)
	}
	// Output still lints.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheus(buf.Bytes()); err != nil {
		t.Fatalf("lint: %v\n%s", err, buf.String())
	}
}

func devLabel(d int) string { return string(rune('0' + d)) }

func TestObserveTrace(t *testing.T) {
	ctx := ledgerWorkload(t)
	r := NewRegistry()
	ObserveTrace(r, ctx.Stats().Trace())

	// 2 launches x 2 devices = 4 kernel events.
	h := r.Histogram("gpu_kernel_seconds", "", nil)
	if h.Count() != 4 {
		t.Fatalf("kernel samples = %d, want 4", h.Count())
	}
	d2h := r.HistogramL("gpu_transfer_bytes", "", nil, L("dir", "d2h"))
	if d2h.Count() != 1 || d2h.Sum() != 4096+8192 {
		t.Fatalf("d2h transfers: count=%d sum=%v", d2h.Count(), d2h.Sum())
	}
	h2d := r.HistogramL("gpu_transfer_bytes", "", nil, L("dir", "h2d"))
	if h2d.Count() != 1 || h2d.Sum() != 2048 {
		t.Fatalf("h2d transfers: count=%d sum=%v", h2d.Count(), h2d.Sum())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	ctx := ledgerWorkload(t)
	r := NewRegistry()
	CollectStats(r, ctx.Stats())
	traces := func() []gpu.Trace {
		return []gpu.Trace{{Name: "solve", Events: ctx.Stats().Trace()}}
	}
	srv := httptest.NewServer(Handler(r, traces))
	defer srv.Close()

	get := func(path string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	code, ct, body := get("/metrics")
	if code != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics: code=%d content-type=%q", code, ct)
	}
	if err := LintPrometheus(body); err != nil {
		t.Fatalf("/metrics does not lint: %v", err)
	}

	code, _, body = get("/metrics.json")
	if code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/metrics.json: code=%d valid=%v", code, json.Valid(body))
	}

	code, _, body = get("/trace.json")
	if code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/trace.json: code=%d valid=%v", code, json.Valid(body))
	}
	if !bytes.Contains(body, []byte("traceEvents")) {
		t.Fatalf("/trace.json missing traceEvents: %s", body[:min(len(body), 200)])
	}

	code, _, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
}

func TestHandlerTraceDisabled(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/trace.json with tracing off: code=%d, want 404", resp.StatusCode)
	}
	// The rejection is the serving stack's one error body, nothing more.
	var e ErrorBody
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil || e != (ErrorBody{Code: "not_found", Error: "tracing not enabled"}) {
		t.Fatalf("404 body %+v (%v), want the not_found ErrorBody", e, err)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", Handler(NewRegistry(), nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serve /metrics: code=%d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDropsStalledHeader: a client that stops in the middle of its
// headers is disconnected once readHeaderTimeout has passed, instead of
// holding its connection for as long as it likes.
func TestServeDropsStalledHeader(t *testing.T) {
	t.Parallel()
	srv, addr, err := Serve("127.0.0.1:0", Handler(NewRegistry(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(conn) // ends when the server hangs up
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled header (bound %v)", elapsed, readHeaderTimeout)
	}
	if len(rest) != 0 {
		t.Fatalf("server answered a stalled header: %q", rest)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Fatalf("disconnected after %v, before the %v bound", elapsed, readHeaderTimeout)
	}
}
