package obs

import (
	"context"
	"encoding/hex"
	"math/rand"
	"strings"
	"sync"
)

// This file is the request-scoped half of the observability layer: a
// Span model with W3C trace-context identifiers, a Tracer that mints
// them, and context.Context propagation so a trace id received on
// POST /solve travels server → sched → solver telemetry without any of
// those layers knowing about HTTP headers. Spans carry two clocks —
// wall time for the serving path (queue wait, lease tenure) and the
// modeled virtual clock for solver phases (the ledger's TotalTime at
// emission) — because the question "what happened to job X" spans both:
// how long it waited is a wall-clock fact, where its device time went is
// a modeled-time fact.

// Span kinds used by the serving stack. Kind is advisory — exporters
// group lanes by it — but LintSpans accepts any value.
const (
	KindRequest = "request" // root: one HTTP request or CLI solve
	KindQueue   = "queue"   // admission-queue wait
	KindLease   = "lease"   // one solve attempt on a device lease
	KindPrepare = "prepare" // fetching or building the lease's prepared problem
	KindSolver  = "solver"  // restart / window / cycle / step phases
	KindHeal    = "heal"    // checkpoint, repartition, fault recovery
)

// Span is one node of a request's trace tree. TraceID and SpanID use the
// W3C trace-context wire widths (16 and 8 bytes, lowercase hex). Start
// and End are Unix seconds on the owner's clock; VStart and VEnd are
// modeled seconds on the solve's virtual clock, meaningful only when
// Virtual is set. A span may carry either clock or both (the root
// carries both, so wall-only and virtual-only children each nest under
// it).
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the parent span id; empty marks a root.
	Parent string `json:"parent_id,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	// Start and End are Unix seconds on the clock of the span's owner,
	// the wall unless a scheduler runs on sched.Virtual (0 = no stamps).
	Start float64 `json:"start_unix,omitempty"`
	End   float64 `json:"end_unix,omitempty"`
	// VStart and VEnd are modeled seconds since the solve's ledger reset;
	// valid only when Virtual is true (VStart 0 is a legal stamp).
	VStart  float64 `json:"vstart,omitempty"`
	VEnd    float64 `json:"vend,omitempty"`
	Virtual bool    `json:"virtual,omitempty"`
	// Attrs are free-form key/value annotations (job id, attempt,
	// relres, TSQR strategy, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// SetAttr sets one annotation, allocating the map on first use.
func (s *Span) SetAttr(k, v string) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
}

// Traceparent renders the span's W3C traceparent header value
// (version 00, sampled flag set), the form echoed in HTTP responses and
// accepted on POST /solve.
func (s Span) Traceparent() string {
	return FormatTraceparent(s.TraceID, s.SpanID)
}

// FormatTraceparent renders a version-00 traceparent header value.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>"). It accepts any known-width version
// byte, per the spec's forward-compatibility rule, and rejects all-zero
// ids. Returns the trace id, the caller's span id, and whether the
// header was usable.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return "", "", false
	}
	ver, tid, sid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || !isHex(ver) || ver == "ff" {
		return "", "", false
	}
	if len(tid) != 32 || !isHex(tid) || allZero(tid) {
		return "", "", false
	}
	if len(sid) != 16 || !isHex(sid) || allZero(sid) {
		return "", "", false
	}
	if len(flags) != 2 || !isHex(flags) {
		return "", "", false
	}
	return tid, sid, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// Tracer mints trace and span identifiers and keeps the trace_* metric
// families. A nil registry disables the instruments but not the ids, so
// tracing works in registry-free embedders (tests, the facade).
type Tracer struct {
	mu  sync.Mutex
	rng *rand.Rand

	spans   Counter // trace_spans_total
	adopted Counter // trace_requests_total{source="traceparent"}
	minted  Counter // trace_requests_total{source="generated"}
	hasReg  bool
}

// NewTracer builds a tracer whose id stream is seeded from math/rand's
// auto-seeded source and registers the trace_* families eagerly (when
// reg is non-nil), so a freshly started daemon already exports them.
func NewTracer(reg *Registry) *Tracer {
	return NewTracerSeeded(reg, rand.Int63())
}

// NewTracerSeeded builds a tracer whose id stream is deterministic for a
// fixed seed — what the replay tests use to pin trace ids.
func NewTracerSeeded(reg *Registry, seed int64) *Tracer {
	t := &Tracer{rng: rand.New(rand.NewSource(seed))}
	if reg != nil {
		t.hasReg = true
		t.spans = reg.Counter("trace_spans_total",
			"Spans recorded into request traces.")
		t.adopted = reg.CounterL("trace_requests_total",
			"Root spans minted, by trace-id source.", L("source", "traceparent"))
		t.minted = reg.CounterL("trace_requests_total",
			"Root spans minted, by trace-id source.", L("source", "generated"))
	}
	return t
}

// hex mints n ≤ 16 random bytes as lowercase hex, never all-zero (the
// W3C formats reserve the zero id as invalid).
func (t *Tracer) hex(n int) string {
	var b [16]byte
	var h [32]byte
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		t.rng.Read(b[:n])
		if b != [16]byte{} {
			hex.Encode(h[:], b[:n])
			return string(h[:2*n])
		}
	}
}

// NewTraceID mints a 16-byte trace id.
func (t *Tracer) NewTraceID() string { return t.hex(16) }

// NewSpanID mints an 8-byte span id.
func (t *Tracer) NewSpanID() string { return t.hex(8) }

// Root mints a request root span: the trace id comes from the
// traceparent header when one parses (the upstream caller's span becomes
// our parent), otherwise a fresh trace is started. The span owns the
// virtual clock from zero; its owner stamps Start from its own clock.
func (t *Tracer) Root(name, traceparent string) Span {
	sp := Span{Name: name, Kind: KindRequest, Virtual: true}
	if tid, sid, ok := ParseTraceparent(traceparent); ok {
		sp.TraceID, sp.Parent = tid, sid
		t.count(t.adopted)
	} else {
		sp.TraceID = t.NewTraceID()
		t.count(t.minted)
	}
	sp.SpanID = t.NewSpanID()
	return sp
}

// Child mints a child span of parent, inheriting the trace id.
func (t *Tracer) Child(parent Span, name, kind string) Span {
	return Span{
		TraceID: parent.TraceID, SpanID: t.NewSpanID(), Parent: parent.SpanID,
		Name: name, Kind: kind,
	}
}

// CountSpan bumps trace_spans_total (called by JobTrace.Add).
func (t *Tracer) CountSpan() { t.count(t.spans) }

func (t *Tracer) count(c Counter) {
	if t != nil && t.hasReg {
		c.Inc()
	}
}

// spanCtxKey carries the active span through context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span; SpanFromContext
// recovers it. This is how the HTTP layer hands the request root to the
// scheduler without the scheduler knowing about headers.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span stored by ContextWithSpan.
func SpanFromContext(ctx context.Context) (Span, bool) {
	if ctx == nil {
		return Span{}, false
	}
	s, ok := ctx.Value(spanCtxKey{}).(Span)
	return s, ok
}
