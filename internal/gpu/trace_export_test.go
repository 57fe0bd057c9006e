package gpu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// traceFixture runs a small deterministic workload with tracing enabled.
func traceFixture() *Context {
	ctx := NewContext(2, M2090())
	ctx.Stats().EnableTrace(64)
	ctx.Gather("tsqr", 100, Elem64)
	ctx.Launch("tsqr", every(Work{Flops: 3e9, Bytes: 1e6}))
	ctx.Broadcast("mpk", 50, Elem64)
	ctx.HostComputeOn("lsq", 2e8)
	return ctx
}

func decodeChrome(t *testing.T, traces []Trace) ChromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var file ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not a valid trace_event file: %v\n%s", err, buf.String())
	}
	return file
}

func TestWriteChromeTraceFormat(t *testing.T) {
	ctx := traceFixture()
	file := decodeChrome(t, []Trace{{Name: "solve", Events: ctx.Stats().Trace()}})
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	// One process_name metadata event naming the trace.
	foundProc := false
	var slices []int
	for i, e := range file.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" && e.Args["name"] == "solve" {
				foundProc = true
			}
		case "X":
			slices = append(slices, i)
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if !foundProc {
		t.Fatal("missing process_name metadata")
	}
	// 5 slices: reduce, one kernel per device (2 devices), broadcast, host.
	if len(slices) != 5 {
		t.Fatalf("got %d duration slices, want 5", len(slices))
	}
	// The modeled clock lays launch groups end to end: every group starts
	// where the slowest member of the previous group ended, members of one
	// group start together, and durations are positive.
	events := ctx.Stats().Trace()
	clock := 0.0
	k := 0
	for i := 0; i < len(events); {
		j := i
		var groupDur float64
		for j < len(events) && events[j].Step == events[i].Step {
			if events[j].Time > groupDur {
				groupDur = events[j].Time
			}
			j++
		}
		for ; i < j; i++ {
			e := file.TraceEvents[slices[k]]
			k++
			if e.Ts != clock*1e6 {
				t.Fatalf("slice %d starts at %v, want %v", k, e.Ts, clock*1e6)
			}
			if e.Dur <= 0 {
				t.Fatalf("slice %d has non-positive duration", k)
			}
		}
		clock += groupDur
	}
	// Lanes: comm kinds share the bus lane; host and each device get their
	// own rows.
	kindTid := map[string]int{}
	devTid := map[int]bool{}
	for _, i := range slices {
		e := file.TraceEvents[i]
		kindTid[e.Cat] = e.Tid
		if e.Cat == "kernel" {
			devTid[e.Tid] = true
		}
	}
	if kindTid["reduce"] != kindTid["broadcast"] {
		t.Fatal("reduce and broadcast should share the comm lane")
	}
	if kindTid["kernel"] == kindTid["reduce"] || kindTid["host"] == kindTid["kernel"] {
		t.Fatalf("kinds not separated into lanes: %v", kindTid)
	}
	if len(devTid) != 2 {
		t.Fatalf("2-device kernel should occupy 2 lanes, got %v", devTid)
	}
}

func TestWriteChromeTraceUnnamed(t *testing.T) {
	file := decodeChrome(t, []Trace{{Events: traceFixture().Stats().Trace()}})
	if ev := file.TraceEvents[0]; ev.Name != "process_name" || ev.Args["name"] != "ctx-0" {
		t.Fatalf("unnamed trace's process record = %+v, want ctx-0", ev)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var file ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if file.TraceEvents == nil {
		t.Fatal("traceEvents must be an empty array, not null")
	}
}

func TestWriteChromeTraceEmptyTraceEntry(t *testing.T) {
	// A Trace with a name but no events still yields a valid file with
	// just the process metadata.
	file := decodeChrome(t, []Trace{{Name: "idle"}})
	if len(file.TraceEvents) != 1 || file.TraceEvents[0].Ph != "M" {
		t.Fatalf("empty trace should emit only process metadata: %+v", file.TraceEvents)
	}
}

func TestWriteChromeTraceSingleEvent(t *testing.T) {
	ctx := NewContext(1, M2090())
	ctx.Stats().EnableTrace(8)
	ctx.HostComputeOn("lsq", 1e6)
	file := decodeChrome(t, []Trace{{Name: "one", Events: ctx.Stats().Trace()}})
	var slices int
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		slices++
		if e.Ts != 0 {
			t.Fatalf("single event must start at 0, got %v", e.Ts)
		}
		if e.Dur <= 0 {
			t.Fatal("single event must have positive duration")
		}
	}
	if slices != 1 {
		t.Fatalf("got %d slices, want 1", slices)
	}
}

func TestChromeTraceDeviceLanes(t *testing.T) {
	// A multi-device trace renders one lane per device; within each lane
	// slices never overlap, and the summed kernel duration of each lane
	// equals the device's ledger total (DevicePhase) exactly.
	ctx := NewContext(3, M2090())
	ctx.Stats().EnableTrace(1 << 10)
	for i := 0; i < 5; i++ {
		ctx.DeviceKernelOn("tsqr", []Work{
			{Flops: 1e9 * float64(i+1)},
			{Flops: 2e9},
			{Flops: 5e8 * float64(i+1), Bytes: 3e8},
		})
		ctx.Gather("tsqr", 30, Elem64)
		ctx.Launch("spmv", every(Work{Flops: 7e8, Bytes: 1e9}))
	}
	file := decodeChrome(t, []Trace{{Name: "multi", Events: ctx.Stats().Trace()}})

	type span struct{ ts, dur float64 }
	lanes := map[int][]span{}   // tid -> slices
	laneDevice := map[int]int{} // tid -> device id from args
	laneKernelUs := map[int]float64{}
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		lanes[e.Tid] = append(lanes[e.Tid], span{e.Ts, e.Dur})
		if e.Cat == "kernel" {
			d, ok := e.Args["device"].(float64)
			if !ok {
				t.Fatalf("kernel slice without device arg: %+v", e)
			}
			if prev, seen := laneDevice[e.Tid]; seen && prev != int(d) {
				t.Fatalf("lane %d mixes devices %d and %d", e.Tid, prev, int(d))
			}
			laneDevice[e.Tid] = int(d)
			laneKernelUs[e.Tid] += e.Dur
		}
	}
	if len(laneDevice) != 3 {
		t.Fatalf("want 3 device lanes, got %v", laneDevice)
	}
	// Per-lane slices must not overlap (they are emitted in clock order).
	for tid, spans := range lanes {
		end := 0.0
		for i, s := range spans {
			if s.ts < end {
				t.Fatalf("lane %d slice %d starts at %v before previous end %v", tid, i, s.ts, end)
			}
			end = s.ts + s.dur
		}
	}
	// Summed per-lane kernel time == DevicePhase totals, to float64
	// round-off (the slices are the same numbers the ledger summed).
	for tid, d := range laneDevice {
		var want float64
		for _, ph := range ctx.Stats().Phases() {
			want += ctx.Stats().DevicePhase(d, ph).DeviceTime
		}
		got := laneKernelUs[tid] / 1e6
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("device %d lane kernel time %v, ledger %v", d, got, want)
		}
	}
}

// TestChromeTraceGolden pins WriteChromeTrace of two traces in one file —
// the fixture under a name and a 3-device trace without one — against
// testdata/chrome_trace.golden. The comparison is on decoded events, so a
// moved slice, lane, name or arg fails while JSON key order stays free.
func TestChromeTraceGolden(t *testing.T) {
	ctx := NewContext(3, M2090())
	ctx.Stats().EnableTrace(64)
	ctx.DeviceKernelOn("tsqr", []Work{{Flops: 1e9}, {Flops: 2e9, Bytes: 1e6}, {Flops: 5e8}})
	ctx.Gather("tsqr", 30, Elem64)
	ctx.Launch("spmv", every(Work{Flops: 7e8, Bytes: 1e9}))
	ctx.Broadcast("mpk", 12, Elem64)
	ctx.HostComputeOn("lsq", 4e6)
	var buf bytes.Buffer
	traces := []Trace{{Name: "solve", Events: traceFixture().Stats().Trace()}, {Events: ctx.Stats().Trace()}}
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	chromeGoldenCompare(t, "chrome_trace.golden", buf.Bytes())
}

// chromeGoldenCompare checks a written trace file against the named
// golden, one event per line; -update rewrites it from got.
func chromeGoldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	var raw struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(got, &raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
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
		goldenCompare(t, name, b.String())
		return
	}
	wantData, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	var gotFile, want ChromeTrace
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
