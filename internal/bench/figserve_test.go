package bench

import (
	"math"
	"reflect"
	"testing"

	"cagmres/internal/gpu"
)

// TestFigServeDeterministic: the sweep runs the real scheduler on the
// virtual clock, so two runs agree field for field.
func TestFigServeDeterministic(t *testing.T) {
	a, b := figServe(Config{}), figServe(Config{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%+v\n%+v", a, b)
	}
}

// TestFigServeShapes: every row conserves its requests, and once the
// clients cover the pool's contexts throughput is flat — the closed
// network's knob is then latency, which grows with the clients.
func TestFigServeShapes(t *testing.T) {
	rows := figServe(Config{})
	var flat []serveRow
	for _, r := range rows {
		if r.Requests != r.Clients*serveRequests || r.Done+r.Canceled+r.Failed != r.Requests {
			t.Errorf("%d clients: %d requests, %d done + %d canceled + %d failed",
				r.Clients, r.Requests, r.Done, r.Canceled, r.Failed)
		}
		if r.Clients >= servePool {
			flat = append(flat, r)
		}
	}
	for _, r := range flat[1:] {
		if ratio := r.ThroughputPerSec / flat[0].ThroughputPerSec; math.Abs(ratio-1) > 0.01 {
			t.Errorf("%d clients: throughput %.2f/s is %.3fx that at %d clients", r.Clients, r.ThroughputPerSec, ratio, flat[0].Clients)
		}
	}
	for i := 1; i < len(flat); i++ {
		if flat[i].P99 <= flat[i-1].P99 {
			t.Errorf("p99 latency %.4f at %d clients does not grow past %.4f at %d",
				flat[i].P99, flat[i].Clients, flat[i-1].P99, flat[i-1].Clients)
		}
	}
}

// TestRPCOverheadPinned pins the per-request RPC overhead of the serving
// sweep (laplace3d at scale 1e-4, n = 125) to its exact float64: 2000
// bytes on one core's quarter of the host bus plus four 1 µs dispatches.
// Every sweep latency is spaced by it, so a drift in the host-kernel
// formula shows here before it moves the sweep table.
func TestRPCOverheadPinned(t *testing.T) {
	const want = 4.2e-06 // 0x3ed19db7358bd307
	if got := rpcOverhead(gpu.M2090().Model, 125); got != want {
		t.Fatalf("rpc overhead %v (%#x), want %v", got, math.Float64bits(got), want)
	}
}
