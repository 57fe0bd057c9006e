package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"cagmres/internal/server"
)

var updateProbes = flag.Bool("update", false, "rewrite testdata/wire_probe.golden with the current answers")

// probe is one request to one tier. A volatile probe's 2xx body carries
// timings, ids or counters, so only its top-level JSON keys are recorded.
type probe struct {
	tier, label  string
	method, path string
	control      string // Solve-Control header
	body         string
	volatile     bool
	oversized    bool // the body is one byte over server.MaxBodyBytes
}

// TestWireProbes records what both HTTP tiers answer to every route with
// the right method, a wrong method, malformed paths, unknown backends and
// jobs, each solve rejection and the 413: status, Content-Type,
// Retry-After, whether a traceparent came back, and the body bytes. The
// probes run in order against one daemon (a LocalNode, its first solve is
// job-1) and routers in front of it or of synthetic backends, so the
// answers are deterministic; testdata/wire_probe.golden is the record
// (-update rewrites it).
func TestWireProbes(t *testing.T) {
	node := NewLocalNode(LocalNodeConfig{Name: "node0", Devices: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = node.Drain(ctx)
	})
	dead := func(name string) *Backend {
		b := NewLocalBackend(name, http.NotFoundHandler())
		b.Kill()
		return b
	}
	shedding := func(name string) *Backend {
		return NewLocalBackend(name, statusHandler(http.StatusTooManyRequests, "queue_full"))
	}
	tiers := map[string]http.Handler{
		"daemon":   node.Server,
		"router":   New(Config{Backends: []*Backend{node.Backend()}}),
		"shedding": New(Config{Backends: []*Backend{shedding("a"), shedding("b"), shedding("c")}, RetryBudgetBurst: 1}),
		"ticking":  New(Config{Backends: []*Backend{node.Backend()}, Clock: tickingClock(200 * time.Millisecond)}),
		"empty":    New(Config{}),
		"dead3":    New(Config{Backends: []*Backend{dead("dead-a"), dead("dead-b"), dead("dead-c")}, MaxHops: 2}),
		"dead2":    New(Config{Backends: []*Backend{dead("dead-a"), dead("dead-b")}, MaxHops: 5}),
	}
	const tiny = `"matrix":{"name":"laplace3d","scale":1e-5}`
	solve := `{` + tiny + `,"m":20,"s":4,"tol":1e-6,"wait":true}`
	lap := `{"matrix":{"name":"laplace3d"}}`
	probes := []probe{
		// The daemon.
		{tier: "daemon", method: "POST", path: "/solve", body: solve, volatile: true},
		{tier: "daemon", method: "GET", path: "/solve"},
		{tier: "daemon", method: "PUT", path: "/solve", body: solve},
		{tier: "daemon", label: "control header", method: "POST", path: "/solve", control: "bogus=1", body: solve},
		{tier: "daemon", label: "body", method: "POST", path: "/solve", body: `{not json`},
		{tier: "daemon", label: "solver", method: "POST", path: "/solve", body: `{` + tiny + `,"solver":"bicgstab"}`},
		{tier: "daemon", label: "matrix", method: "POST", path: "/solve", body: `{"matrix":{}}`},
		{tier: "daemon", label: "generator", method: "POST", path: "/solve", body: `{"matrix":{"name":"nope"}}`},
		{tier: "daemon", label: "rhs", method: "POST", path: "/solve", body: `{` + tiny + `,"rhs":"zeros"}`},
		{tier: "daemon", label: "ordering", method: "POST", path: "/solve", body: `{` + tiny + `,"ordering":"sorted"}`},
		{tier: "daemon", label: "precision", method: "POST", path: "/solve", body: `{` + tiny + `,"precision":"fp16"}`},
		{tier: "daemon", label: "profile", method: "POST", path: "/solve", body: `{` + tiny + `,"profile":{"base":"k20"}}`},
		{tier: "daemon", label: "ortho", method: "POST", path: "/solve", body: `{` + tiny + `,"ortho":"bogus"}`},
		{tier: "daemon", label: "s above m", method: "POST", path: "/solve", body: `{` + tiny + `,"m":30,"s":40}`},
		{tier: "daemon", label: "m above n", method: "POST", path: "/solve", body: `{` + tiny + `,"m":65}`},
		{tier: "daemon", label: "oversized", method: "POST", path: "/solve", oversized: true},
		{tier: "daemon", method: "GET", path: "/jobs/job-1", volatile: true},
		{tier: "daemon", method: "POST", path: "/jobs/job-1", volatile: true},
		{tier: "daemon", method: "GET", path: "/jobs/job-1/trace.json", volatile: true},
		{tier: "daemon", method: "POST", path: "/jobs/job-1/trace.json", volatile: true},
		{tier: "daemon", method: "GET", path: "/jobs/job-1/spans.jsonl", volatile: true},
		{tier: "daemon", method: "GET", path: "/jobs/job-1/bogus"},
		{tier: "daemon", method: "GET", path: "/jobs/job-1/trace.json/x"},
		{tier: "daemon", method: "GET", path: "/jobs/nope"},
		{tier: "daemon", method: "GET", path: "/jobs/nope/trace.json"},
		{tier: "daemon", method: "GET", path: "/jobs/"},
		{tier: "daemon", method: "GET", path: "/jobs"},
		{tier: "daemon", method: "GET", path: "/healthz", volatile: true},
		{tier: "daemon", method: "POST", path: "/healthz", volatile: true},
		{tier: "daemon", method: "GET", path: "/slo", volatile: true},
		{tier: "daemon", method: "POST", path: "/slo"},
		{tier: "daemon", method: "HEAD", path: "/slo"},
		{tier: "daemon", method: "GET", path: "/metrics", volatile: true},
		{tier: "daemon", method: "POST", path: "/metrics", volatile: true},
		{tier: "daemon", method: "GET", path: "/metrics.json", volatile: true},
		{tier: "daemon", method: "GET", path: "/trace.json"},
		{tier: "daemon", method: "GET", path: "/nope"},
		// The router in front of it.
		{tier: "router", method: "POST", path: "/solve", body: solve, volatile: true},
		{tier: "router", method: "GET", path: "/solve"},
		{tier: "router", method: "PUT", path: "/solve", body: solve},
		{tier: "router", label: "control header", method: "POST", path: "/solve", control: "bogus=1", body: solve},
		{tier: "router", label: "bad json", method: "POST", path: "/solve", body: `{"matrix":`},
		{tier: "router", label: "no matrix", method: "POST", path: "/solve", body: `{}`},
		{tier: "router", label: "backend 400", method: "POST", path: "/solve", body: `{` + tiny + `,"ortho":"bogus"}`},
		{tier: "router", label: "oversized", method: "POST", path: "/solve", oversized: true},
		{tier: "shedding", label: "retry budget", method: "POST", path: "/solve", body: lap},
		{tier: "ticking", label: "deadline", method: "POST", path: "/solve", body: `{"matrix":{"name":"laplace3d"},"deadline_ms":100}`},
		{tier: "empty", label: "no backend", method: "POST", path: "/solve", body: lap},
		{tier: "dead3", label: "hop limit", method: "POST", path: "/solve", body: lap},
		{tier: "dead2", label: "shard unavailable", method: "POST", path: "/solve", body: lap},
		{tier: "router", method: "GET", path: "/jobs/node0/job-1", volatile: true},
		{tier: "router", method: "POST", path: "/jobs/node0/job-1"},
		{tier: "router", method: "HEAD", path: "/jobs/node0/job-1"},
		{tier: "router", method: "GET", path: "/jobs/node0/job-1/trace.json", volatile: true},
		{tier: "router", method: "GET", path: "/jobs/node0/job-1/bogus"},
		{tier: "router", method: "GET", path: "/jobs/node0/nope"},
		{tier: "router", method: "GET", path: "/jobs/nope/42"},
		{tier: "router", method: "GET", path: "/jobs/42"},
		{tier: "router", method: "POST", path: "/jobs/42"},
		{tier: "router", method: "GET", path: "/jobs/node0/"},
		{tier: "router", method: "GET", path: "/jobs/"},
		{tier: "router", method: "GET", path: "/jobs"},
		{tier: "router", method: "GET", path: "/healthz", volatile: true},
		{tier: "router", method: "POST", path: "/healthz"},
		{tier: "router", method: "HEAD", path: "/healthz"},
		{tier: "router", method: "GET", path: "/slo", volatile: true},
		{tier: "router", method: "POST", path: "/slo"},
		{tier: "router", method: "GET", path: "/metrics", volatile: true},
		{tier: "router", method: "POST", path: "/metrics"},
		{tier: "router", method: "GET", path: "/backends/node0/healthz", volatile: true},
		{tier: "router", method: "GET", path: "/backends/node0/nope"},
		{tier: "router", method: "POST", path: "/backends/node0/healthz"},
		{tier: "router", method: "GET", path: "/backends/nope/metrics"},
		{tier: "router", method: "GET", path: "/backends/node0"},
		{tier: "router", method: "GET", path: "/backends/node0/"},
		{tier: "router", method: "GET", path: "/backends/"},
		{tier: "router", method: "GET", path: "/backends"},
		{tier: "dead2", method: "GET", path: "/backends/dead-a/metrics"},
		{tier: "router", method: "POST", path: "/admin/kill/node0"},
		{tier: "router", method: "POST", path: "/admin/revive/node0"},
		{tier: "router", method: "GET", path: "/admin/kill/node0"},
		{tier: "router", method: "GET", path: "/admin/revive/node0"},
		{tier: "router", method: "POST", path: "/admin/kill/nope"},
		{tier: "router", method: "POST", path: "/admin/revive/a/b"},
		{tier: "router", method: "POST", path: "/admin/kill/"},
		{tier: "router", method: "POST", path: "/admin/kill"},
		{tier: "router", method: "POST", path: "/admin/nope"},
		{tier: "router", method: "GET", path: "/nope"},
	}
	oversized := strings.Repeat(" ", server.MaxBodyBytes+1)
	var got []string
	for _, p := range probes {
		body := p.body
		if p.oversized {
			body = oversized
		}
		req := httptest.NewRequest(p.method, p.path, strings.NewReader(body))
		if p.control != "" {
			req.Header.Set(server.SolveControlHeader, p.control)
		}
		rec := httptest.NewRecorder()
		tiers[p.tier].ServeHTTP(rec, req)
		got = append(got, p.record(rec))
	}

	const golden = "testdata/wire_probe.golden"
	if *updateProbes {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(data), "\n\n")
	if want[len(want)-1] == "" {
		want = want[:len(want)-1]
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d probes, the table %d", golden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("probe answered\n%swant\n%s", got[i], want[i])
		}
	}
}

// record renders one answer as a block of the golden file.
func (p probe) record(rec *httptest.ResponseRecorder) string {
	name := p.tier + " " + p.method + " " + p.path
	if p.label != "" {
		name += " (" + p.label + ")"
	}
	body := fmt.Sprintf("%q", rec.Body.String())
	if p.volatile && rec.Code < 300 {
		var doc map[string]json.RawMessage
		if json.Unmarshal(rec.Body.Bytes(), &doc) == nil {
			keys := make([]string, 0, len(doc))
			for k := range doc {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			body = "keys " + strings.Join(keys, ",")
		} else {
			body = "volatile, not a JSON object"
		}
	}
	h := rec.Result().Header
	return fmt.Sprintf("== %s\nstatus %d\ncontent-type %q\nretry-after %q\ntraceparent %t\nbody %s\n\n",
		name, rec.Code, h.Get("Content-Type"), h.Get("Retry-After"), h.Get("traceparent") != "", body)
}
