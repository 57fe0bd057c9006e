package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestJobTraceChromeGolden pins the stitched Chrome export of one job
// against testdata/jobtrace_chrome.golden: a seeded tracer, fixed wall
// stamps on the root, queue and lease spans, the solver-phase spans of a
// 2-device CA-GMRES solve's telemetry plus a checkpoint and a
// repartition heal mark, and that solve's ledger on the device lanes.
// The comparison is on decoded events, so JSON key order stays free; the
// zero-width heal marks must still carry their "dur" key.
func TestJobTraceChromeGolden(t *testing.T) {
	tr := obs.NewTracerSeeded(nil, 38)
	root := tr.Root("solve", "")
	root.Start = 1000
	jt := obs.NewJobTrace(tr, root)
	for _, w := range []struct {
		name, kind string
		start, end float64
	}{{"queue", obs.KindQueue, 1000.25, 1000.5}, {"lease", obs.KindLease, 1000.5, 1002}} {
		s := tr.Child(root, w.name, w.kind)
		s.Start, s.End = w.start, w.end
		s.SetAttr("job_id", "job-1")
		jt.Add(s)
	}

	a := matgen.Laplace3D(6, 6, 6, 0.1)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	ctx := gpu.NewContext(2, gpu.M2090())
	ctx.Stats().EnableTrace(1 << 12)
	p, err := core.NewProblem(ctx, a, b, core.Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	sink := jt.SolverSink(tr, root, "job-1", 0, nil)
	res, err := core.CAGMRES(p, core.Options{M: 8, S: 4, Tol: 1e-12, MaxRestarts: 2, Ortho: "CholQR", Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	clock := res.Stats.TotalTime()
	sink.Emit(obs.Record{Kind: "checkpoint", Restart: 2, Step: res.Iters, Clock: clock})
	sink.Emit(obs.Record{Kind: "repartition", Restart: 2, Step: 1, Clock: clock})
	jt.AttachStats(res.Stats)
	jt.FinishRoot(1003, clock)

	var buf bytes.Buffer
	if err := jt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var raw struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	marks := 0
	for _, ev := range raw.TraceEvents {
		if ev["ph"] == "X" && ev["cat"] == obs.KindHeal {
			marks++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("zero-width heal mark without a dur key: %v", ev)
			}
		}
	}
	if marks != 2 {
		t.Fatalf("%d heal marks, want 2", marks)
	}
	chromeGoldenCompare(t, "jobtrace_chrome.golden", buf.Bytes())
}

// chromeGoldenCompare checks a written trace file against the named
// golden, one event per line; -update rewrites it from got.
func chromeGoldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		var raw struct {
			TraceEvents     []json.RawMessage `json:"traceEvents"`
			DisplayTimeUnit string            `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(got, &raw); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "{\"displayTimeUnit\":%q,\"traceEvents\":[\n", raw.DisplayTimeUnit)
		for i, ev := range raw.TraceEvents {
			b.Write(ev)
			if i < len(raw.TraceEvents)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantData, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	var gotFile, want gpu.ChromeTrace
	if err := json.Unmarshal(got, &gotFile); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatal(err)
	}
	if gotFile.DisplayTimeUnit != want.DisplayTimeUnit {
		t.Fatalf("displayTimeUnit %q, golden %q", gotFile.DisplayTimeUnit, want.DisplayTimeUnit)
	}
	for i := range want.TraceEvents {
		if i >= len(gotFile.TraceEvents) {
			t.Fatalf("%d events, %s has %d", len(gotFile.TraceEvents), path, len(want.TraceEvents))
		}
		if !reflect.DeepEqual(gotFile.TraceEvents[i], want.TraceEvents[i]) {
			t.Fatalf("event %d drifted from %s:\n got %+v\nwant %+v", i, path, gotFile.TraceEvents[i], want.TraceEvents[i])
		}
	}
	if len(gotFile.TraceEvents) != len(want.TraceEvents) {
		t.Fatalf("%d events, %s has %d", len(gotFile.TraceEvents), path, len(want.TraceEvents))
	}
}
