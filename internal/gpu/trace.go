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

// TraceOf snapshots this ledger's recorded events under the given name.
func (s *Stats) TraceOf(name string) Trace {
	return Trace{Name: name, Events: s.Trace()}
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// a complete event ("ph":"X") with microsecond timestamps, renderable by
// chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the top-level JSON object of the trace_event format.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Lane tids of the Chrome export: the shared bus and the host CPU come
// first, then one lane per simulated device.
const (
	commLane       = 0
	hostLane       = 1
	deviceLaneBase = 2
)

// laneFor maps an event to a stable thread lane: communication and host
// compute each get one shared row, and every simulated device gets its
// own row (deviceLaneBase + id) so load imbalance across devices is
// visible on the timeline.
func laneFor(e Event) (tid int, lane string) {
	switch e.Kind {
	case "reduce", "broadcast", "fault-transfer":
		return commLane, "comm (PCIe/interconnect)"
	case "kernel", "fault-death":
		if e.Device >= 0 {
			return deviceLaneBase + e.Device, fmt.Sprintf("device %d compute", e.Device)
		}
		return deviceLaneBase, "device compute"
	default:
		return hostLane, "host compute"
	}
}

// WalkSlices lays events out on the Chrome timeline and hands each to
// visit with its start and lane. Timestamps are the cumulative modeled
// clock: launch groups (consecutive events sharing a Step — e.g. the
// per-device slices of one kernel launch) start together and the clock
// advances by the group's maximum duration. If a ring buffer wrapped, the
// clock starts at zero from the oldest retained event. Both Chrome
// exports — WriteChromeTrace and the request-trace stitching in
// internal/obs — walk the ledger through it, so a job's device lanes
// match the standalone export slice for slice.
func WalkSlices(events []Event, visit func(e Event, start float64, tid int, lane string)) {
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
			tid, lane := laneFor(e)
			visit(e, clock, tid, lane)
		}
		clock += groupDur
		i = j
	}
}

// WriteChromeTrace renders the traces in Chrome trace_event format: each
// Trace becomes one process (pid), each event a complete-duration slice
// on its lane — one lane per device plus shared comm and host lanes —
// placed by WalkSlices, so concurrent device work renders side by side
// and the x-axis is deterministic modeled time, not wall time.
func WriteChromeTrace(w io.Writer, traces []Trace) error {
	file := chromeTraceFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for pid, tr := range traces {
		name := tr.Name
		if name == "" {
			name = fmt.Sprintf("ctx-%d", pid)
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
		lanes := map[int]bool{}
		WalkSlices(tr.Events, func(e Event, start float64, tid int, lane string) {
			if !lanes[tid] {
				lanes[tid] = true
				file.TraceEvents = append(file.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": lane},
				})
			}
			args := map[string]any{"seq": e.Seq, "bytes": e.Bytes}
			if e.Device >= 0 {
				args["device"] = e.Device
			}
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: e.Phase,
				Cat:  e.Kind,
				Ph:   "X",
				Ts:   start * 1e6, // microseconds
				Dur:  e.Time * 1e6,
				Pid:  pid,
				Tid:  tid,
				Args: args,
			})
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}
