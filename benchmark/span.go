package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test is not instrumented by this
// benchmark). Spans of one op share Op; Parent is the span that made the
// call, 0 for a top-level span.
type span struct {
	ID     int
	Parent int
	Op     int
	Lane   int // goroutine lane: 0 main, 1.. clients
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced ops of a run take the same code
// path as the traced ones.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id for end and for children.
func (t *tracer) start(name string, parent, op, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Lane: lane, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (queue wait
// and service time reported by the server in its job JSON).
func (t *tracer) add(name string, parent, op, lane int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Lane: lane, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// finished returns the closed spans.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		at := s.Start // everything before at is already counted
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerTime is the per-span-name summary of a traced run.
type layerTime struct {
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func summarizeLayers(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Calls++
		lt.TotalS += (s.End - s.Start).Seconds()
		lt.SelfS += self[s.ID].Seconds()
		out[s.Name] = lt
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (load it
// in chrome://tracing or ui.perfetto.dev): one complete ("X") event per
// span, one thread lane per benchmark goroutine.
func writeChromeTrace(path, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "benchmark " + workload}}}
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.Lane] {
			lanes[s.Lane] = true
			name := "main"
			if s.Lane > 0 {
				name = "client " + string(rune('0'+s.Lane))
			}
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.Lane, Args: map[string]any{"name": name}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
