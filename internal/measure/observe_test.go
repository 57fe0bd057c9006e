package measure

import (
	"testing"

	"cagmres/internal/gpu"
)

type recordedSample struct {
	name    string
	seconds float64
	modeled bool
}

type recorder struct{ samples []recordedSample }

func (r *recorder) ObserveKernel(name string, seconds float64, modeled bool) {
	r.samples = append(r.samples, recordedSample{name, seconds, modeled})
}

func TestInstrumentReportsSamples(t *testing.T) {
	rec := &recorder{}
	base := NewModelTimer(gpu.M2090().Model)
	timer := Instrument(base, rec)
	if !timer.Deterministic() {
		t.Fatal("instrumentation broke determinism")
	}
	k := Kernel{Name: "tsqr", Flops: 1e6, Bytes: 1e5, Parallelism: 4}
	ran := false
	s := timer.Time(k, func() { ran = true })
	if !ran {
		t.Fatal("kernel body not executed")
	}
	if s != base.Time(k, nil) {
		t.Fatal("instrumentation changed the sample")
	}
	if len(rec.samples) != 1 {
		t.Fatalf("observed %d samples", len(rec.samples))
	}
	got := rec.samples[0]
	if got.name != "tsqr" || got.seconds != s.Seconds || !got.modeled {
		t.Fatalf("observed %+v, want {tsqr %v true}", got, s.Seconds)
	}
}

func TestInstrumentNilObserver(t *testing.T) {
	base := NewModelTimer(gpu.M2090().Model)
	if Instrument(base, nil) != Timer(base) {
		t.Fatal("nil observer should return the timer unchanged")
	}
}
