package bench

import (
	"fmt"
	"sync"

	"cagmres/internal/gpu"
)

// DefaultTraceEvents is the per-context ring-buffer capacity a
// TraceCollector enables when none is given.
const DefaultTraceEvents = 1 << 14

// TraceCollector harvests the event traces of every simulated context
// the benchmark drivers create. Attach it via Config.Trace, run any
// figure drivers, then export the merged result by handing Traces to
// gpu.WriteChromeTrace (the Chrome trace_event format, openable in
// chrome://tracing or Perfetto).
// Each context becomes one named process in the viewer; SetLabel names
// the contexts created from that point on (cmd/experiments labels them
// by figure).
type TraceCollector struct {
	mu      sync.Mutex
	perCtx  int
	label   string
	entries []traceEntry
}

type traceEntry struct {
	label string
	ctx   *gpu.Context
}

// NewTraceCollector returns a collector that keeps the last
// eventsPerContext ledger events of each context (DefaultTraceEvents if
// <= 0).
func NewTraceCollector(eventsPerContext int) *TraceCollector {
	if eventsPerContext <= 0 {
		eventsPerContext = DefaultTraceEvents
	}
	return &TraceCollector{perCtx: eventsPerContext}
}

// SetLabel names the contexts attached after this call.
func (t *TraceCollector) SetLabel(label string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.label = label
}

// attach enables tracing on ctx and remembers it for harvest.
func (t *TraceCollector) attach(ctx *gpu.Context) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ctx.Stats().EnableTrace(t.perCtx)
	t.entries = append(t.entries, traceEntry{label: t.label, ctx: ctx})
}

// Traces snapshots every attached context's events, in attach order.
// Contexts that recorded nothing are skipped. Names are "label#k" with k
// counting contexts per label ("ctx#k" when no label was set).
func (t *TraceCollector) Traces() []gpu.Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	perLabel := map[string]int{}
	out := make([]gpu.Trace, 0, len(t.entries))
	for _, e := range t.entries {
		label := e.label
		if label == "" {
			label = "ctx"
		}
		k := perLabel[e.label]
		perLabel[e.label]++
		ev := e.ctx.Stats().Trace()
		if len(ev) == 0 {
			continue
		}
		out = append(out, gpu.Trace{Name: fmt.Sprintf("%s#%d", label, k), Events: ev})
	}
	return out
}

// Contexts returns every attached context, in attach order. The
// observability bridges use it to fold each context's full Stats ledger
// into a metrics registry (Traces only exposes the event rings).
func (t *TraceCollector) Contexts() []*gpu.Context {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*gpu.Context, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.ctx
	}
	return out
}
