package obs

import (
	"bytes"
	"errors"
	"testing"
)

func TestJSONLSinkAndLintTelemetry(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	recs := []Record{
		{Kind: "step", Solver: "gmres", Restart: 0, Step: 1, Clock: 0.1, RelRes: 0.5},
		{Kind: "step", Solver: "gmres", Restart: 0, Step: 2, Clock: 0.2, RelRes: 0.25},
		{Kind: "restart", Solver: "gmres", Restart: 0, Step: 2, Clock: 0.2, RelRes: 0.25},
		{Kind: "done", Solver: "gmres", Restart: 1, Step: 4, Clock: 0.4, RelRes: 1e-9, OrthoLoss: 2e-15},
	}
	for _, r := range recs {
		s.Emit(r)
	}
	if s.Err() != nil || s.Close() != nil {
		t.Fatalf("sink state: err=%v", s.Err())
	}
	got, err := LintTelemetry(buf.Bytes())
	if err != nil {
		t.Fatalf("lint rejected own stream: %v\n%s", err, buf.String())
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestLintTelemetryRejects(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"not json":        "hello\n",
		"missing kind":    `{"solver":"gmres","clock":1}` + "\n",
		"clock backwards": `{"kind":"step","clock":2}` + "\n" + `{"kind":"done","clock":1}` + "\n",
		"no done":         `{"kind":"step","clock":1}` + "\n",
	}
	for name, in := range cases {
		if _, err := LintTelemetry([]byte(in)); err == nil {
			t.Fatalf("%s: lint accepted %q", name, in)
		}
	}
}

type failWriter struct{ after, calls int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	w := &failWriter{after: 1}
	s := NewJSONLSink(w)
	s.Emit(Record{Kind: "step"})
	s.Emit(Record{Kind: "step"}) // fails
	s.Emit(Record{Kind: "done"}) // dropped, no panic
	if w.calls != 2 {
		t.Fatalf("writes = %d, want 2: the record after the error must be dropped", w.calls)
	}
	if s.Err() == nil {
		t.Fatal("sticky error lost")
	}
}

func TestMultiSinkSkipsNil(t *testing.T) {
	var a, b []Record
	m := MultiSink(
		SinkFunc(func(r Record) { a = append(a, r) }),
		nil,
		SinkFunc(func(r Record) { b = append(b, r) }),
	)
	m.Emit(Record{Kind: "done", Step: 3})
	if len(a) != 1 || len(b) != 1 || a[0].Step != 3 {
		t.Fatalf("fan-out failed: a=%v b=%v", a, b)
	}
}

func TestConvergenceSink(t *testing.T) {
	r := NewRegistry()
	var forwarded []Record
	sink := r.ConvergenceSink(SinkFunc(func(rec Record) { forwarded = append(forwarded, rec) }))

	sink.Emit(Record{Kind: "step", Solver: "gmres", Restart: 0, Step: 1, Clock: 0.1, RelRes: 0.5})
	sink.Emit(Record{Kind: "window", Solver: "cagmres", Restart: 1, Step: 5, Clock: 0.3, RelRes: 0.1, OrthoLoss: 3e-14, TSQR: "tsqr"})
	sink.Emit(Record{Kind: "done", Solver: "cagmres", Restart: 2, Step: 42, Clock: 0.9, RelRes: 1e-10})

	if len(forwarded) != 3 {
		t.Fatalf("forwarded %d records", len(forwarded))
	}
	if v := r.CounterL("solver_telemetry_records_total", "", L("kind", "step", "solver", "gmres")).Value(); v != 1 {
		t.Fatalf("step counter = %v", v)
	}
	if v := r.Gauge("solver_relres", "").Value(); v != 1e-10 {
		t.Fatalf("relres gauge = %v", v)
	}
	if v := r.Gauge("solver_modeled_seconds", "").Value(); v != 0.9 {
		t.Fatalf("clock gauge = %v", v)
	}
	if v := r.Gauge("solver_ortho_loss", "").Value(); v != 3e-14 {
		t.Fatalf("ortho gauge = %v", v)
	}
	if v := r.Gauge("solver_iterations", "").Value(); v != 42 {
		t.Fatalf("iterations gauge = %v", v)
	}
	if n := r.Histogram("solver_ortho_loss_hist", "", nil).Count(); n != 1 {
		t.Fatalf("ortho histogram count = %d", n)
	}
	// A registry fed only through the sink still exports lintable text.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheus(buf.Bytes()); err != nil {
		t.Fatalf("lint: %v\n%s", err, buf.String())
	}
	// Nil next must not panic.
	r.ConvergenceSink(nil).Emit(Record{Kind: "done"})
}
