package obs

import (
	"context"
	"strings"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	const tid = "0af7651916cd43dd8448eb211c80319c"
	const sid = "b7ad6b7169203331"
	cases := []struct {
		in      string
		ok      bool
		wantTID string
		wantSID string
	}{
		{"00-" + tid + "-" + sid + "-01", true, tid, sid},
		{"  00-" + tid + "-" + sid + "-01  ", true, tid, sid},                // whitespace tolerated
		{"cc-" + tid + "-" + sid + "-00", true, tid, sid},                    // unknown version accepted
		{"ff-" + tid + "-" + sid + "-01", false, "", ""},                     // reserved version
		{"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", false, "", ""}, // zero trace id
		{"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", false, "", ""}, // zero span id
		{"00-" + tid[:31] + "-" + sid + "-01", false, "", ""},                // short trace id
		{"00-" + strings.ToUpper(tid) + "-" + sid + "-01", false, "", ""},    // uppercase hex
		{"", false, "", ""},
		{"garbage", false, "", ""},
	}
	for _, c := range cases {
		gotTID, gotSID, ok := ParseTraceparent(c.in)
		if ok != c.ok || gotTID != c.wantTID || gotSID != c.wantSID {
			t.Errorf("ParseTraceparent(%q) = (%q, %q, %t), want (%q, %q, %t)",
				c.in, gotTID, gotSID, ok, c.wantTID, c.wantSID, c.ok)
		}
	}
}

func TestRootAdoptsTraceparent(t *testing.T) {
	tr := NewTracerSeeded(nil, 1)
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	root := tr.Root("solve", tp)
	if root.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("adopted trace id %q", root.TraceID)
	}
	if root.Parent != "b7ad6b7169203331" {
		t.Fatalf("caller span not adopted as parent: %q", root.Parent)
	}
	if root.SpanID == "" || root.SpanID == root.Parent {
		t.Fatalf("root span id %q", root.SpanID)
	}
	// Round trip: the echoed header carries the adopted trace id and the
	// new span id.
	tid, sid, ok := ParseTraceparent(root.Traceparent())
	if !ok || tid != root.TraceID || sid != root.SpanID {
		t.Fatalf("echo %q does not round-trip (%q, %q, %t)", root.Traceparent(), tid, sid, ok)
	}

	// An unusable header mints a fresh trace instead.
	minted := tr.Root("solve", "bogus")
	if minted.TraceID == "" || minted.TraceID == root.TraceID || minted.Parent != "" {
		t.Fatalf("minted root = %+v", minted)
	}

	child := tr.Child(root, "lease attempt 1", KindLease)
	if child.TraceID != root.TraceID || child.Parent != root.SpanID {
		t.Fatalf("child does not inherit: %+v", child)
	}
}

func TestTracerSeededDeterministic(t *testing.T) {
	a := NewTracerSeeded(nil, 42)
	b := NewTracerSeeded(nil, 42)
	for i := 0; i < 4; i++ {
		if at, bt := a.NewTraceID(), b.NewTraceID(); at != bt {
			t.Fatalf("draw %d: %q != %q", i, at, bt)
		}
	}
	if a.NewSpanID() == a.NewSpanID() {
		t.Fatal("consecutive span ids collided")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTracerSeeded(nil, 7)
	root := tr.Root("solve", "")
	ctx := ContextWithSpan(context.Background(), root)
	got, ok := SpanFromContext(ctx)
	if !ok || got.TraceID != root.TraceID || got.SpanID != root.SpanID {
		t.Fatalf("SpanFromContext = (%+v, %t)", got, ok)
	}
	if _, ok := SpanFromContext(context.Background()); ok {
		t.Fatal("empty context yielded a span")
	}
}

func TestTracerMetrics(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracerSeeded(reg, 3)
	tr.Root("solve", "") // generated
	tr.Root("solve", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	tr.CountSpan()
	var w writeBuf
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if err := RequireFamilies(w.b, []string{"trace_spans_total", "trace_requests_total"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`trace_requests_total{source="generated"} 1`,
		`trace_requests_total{source="traceparent"} 1`,
		`trace_spans_total 1`,
	} {
		if !strings.Contains(string(w.b), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

type writeBuf struct{ b []byte }

func (w *writeBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
