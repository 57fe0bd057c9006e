package gpu

import (
	"bytes"
	"encoding/json"
	"math"
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

// chromeFile is the subset of the trace_event format the tests inspect.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func decodeChrome(t *testing.T, traces []Trace) chromeFile {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var file chromeFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not a valid trace_event file: %v\n%s", err, buf.String())
	}
	return file
}

func TestWriteChromeTraceFormat(t *testing.T) {
	ctx := traceFixture()
	file := decodeChrome(t, []Trace{ctx.Stats().TraceOf("solve")})
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
	ctx := traceFixture()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []Trace{{Events: ctx.Stats().Trace()}}); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if _, ok := file["traceEvents"]; !ok {
		t.Fatal("missing traceEvents key")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []any `json:"traceEvents"`
	}
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
	file := decodeChrome(t, []Trace{ctx.Stats().TraceOf("one")})
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
	file := decodeChrome(t, []Trace{ctx.Stats().TraceOf("multi")})

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
