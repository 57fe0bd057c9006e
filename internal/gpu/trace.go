package gpu

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace is a named event sequence — the unit of trace export. Name
// labels the simulated context the events came from (e.g. "fig11c" or
// "solve"); Events are in Seq order.
type Trace struct {
	Name   string  `json:"name"`
	Events []Event `json:"events"`
}

// ChromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// renderable by chrome://tracing and Perfetto: a metadata record
// ("ph":"M", naming a process or thread) or a complete slice ("ph":"X")
// with microsecond timestamps. Dur is written on every event, so a
// zero-width slice keeps its "dur":0.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level JSON object of the trace_event format:
// the one Chrome encoder (WriteChromeTrace and internal/obs's stitched
// request trace build through its methods) and the type readers decode.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Name appends a metadata record: key is "process_name" or
// "thread_name", name the label the viewer shows for (pid, tid).
func (f *ChromeTrace) Name(pid, tid int, key, name string) {
	f.TraceEvents = append(f.TraceEvents, ChromeEvent{
		Name: key, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// Slice appends a complete slice on lane (pid, tid); start and dur are
// seconds, written as microseconds.
func (f *ChromeTrace) Slice(pid, tid int, name, cat string, start, dur float64, args map[string]any) {
	f.TraceEvents = append(f.TraceEvents, ChromeEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts: start * 1e6, Dur: dur * 1e6,
		Pid: pid, Tid: tid, Args: args,
	})
}

// Ledger replays a ledger's events as slices of process pid named by
// phase, with kind as category and seq, bytes and device as args, each on
// its laneFor tid shifted by tidOff and named on first use. Starts are
// the cumulative modeled clock: a launch group (consecutive events
// sharing a Step, e.g. one kernel's per-device slices) starts together
// and the clock advances by its longest member — from zero at the oldest
// retained event if a ring buffer wrapped. Summing a device lane's slices
// by name reproduces Stats.DevicePhase term for term.
func (f *ChromeTrace) Ledger(pid, tidOff int, events []Event) {
	named := map[int]bool{}
	clock := 0.0 // modeled seconds since the first retained event
	for i := 0; i < len(events); {
		j := i
		var groupDur float64
		for j < len(events) && events[j].Step == events[i].Step {
			if t := events[j].Time; t > groupDur {
				groupDur = t
			}
			j++
		}
		for _, e := range events[i:j] {
			lane, laneName := laneFor(e)
			tid := tidOff + lane
			if !named[tid] {
				named[tid] = true
				f.Name(pid, tid, "thread_name", laneName)
			}
			args := map[string]any{"seq": e.Seq, "bytes": e.Bytes}
			if e.Device >= 0 {
				args["device"] = e.Device
			}
			f.Slice(pid, tid, e.Phase, e.Kind, clock, e.Time, args)
		}
		clock += groupDur
		i = j
	}
}

// Write encodes the file with millisecond display units; an empty file
// still writes "traceEvents":[] rather than null.
func (f *ChromeTrace) Write(w io.Writer) error {
	f.DisplayTimeUnit = "ms"
	if f.TraceEvents == nil {
		f.TraceEvents = []ChromeEvent{}
	}
	return json.NewEncoder(w).Encode(f)
}

// laneFor maps an event to a stable thread lane: communication (tid 0)
// and host compute (tid 1) each get one shared row, and every simulated
// device d its own row at tid 2+d, so load imbalance across devices is
// visible on the timeline.
func laneFor(e Event) (tid int, lane string) {
	switch e.Kind {
	case "reduce", "broadcast", "fault-transfer":
		return 0, "comm (PCIe/interconnect)"
	case "kernel", "fault-death":
		if e.Device >= 0 {
			return 2 + e.Device, fmt.Sprintf("device %d compute", e.Device)
		}
		return 2, "device compute"
	default:
		return 1, "host compute"
	}
}

// WriteChromeTrace renders the traces in Chrome trace_event format: each
// Trace becomes one process (pid) whose ledger events are replayed by
// ChromeTrace.Ledger — one lane per device plus shared comm and host
// lanes — so concurrent device work renders side by side and the x-axis
// is deterministic modeled time, not wall time.
func WriteChromeTrace(w io.Writer, traces []Trace) error {
	var file ChromeTrace
	for pid, tr := range traces {
		name := tr.Name
		if name == "" {
			name = fmt.Sprintf("ctx-%d", pid)
		}
		file.Name(pid, 0, "process_name", name)
		file.Ledger(pid, 0, tr.Events)
	}
	return file.Write(w)
}
