package measure

import (
	"testing"
	"time"

	"cagmres/internal/gpu"
)

func TestModelTimerDeterministic(t *testing.T) {
	tm := NewModelTimer(gpu.M2090().Model)
	k := Kernel{Name: "gemm", Flops: 1.2e8, Bytes: 3e7, Parallelism: 16, Dispatches: 33}
	a := tm.Time(k, nil)
	b := tm.Time(k, nil)
	if a != b {
		t.Fatalf("modeled samples differ: %+v vs %+v", a, b)
	}
	if !a.Modeled || a.Reps != 1 {
		t.Fatalf("sample not marked modeled: %+v", a)
	}
	if !tm.Deterministic() {
		t.Fatal("ModelTimer must report deterministic")
	}
}

func TestModelTimerParallelBeatsSerial(t *testing.T) {
	// The Figure 11(a,b) property as a model invariant: the batched
	// (panel-parallel) schedule of the same work is strictly faster than
	// the serial one-pass schedule for tall inputs.
	tm := NewModelTimer(gpu.M2090().Model)
	n, c := 1<<17, 30
	flops := float64(n) * float64(c) * float64(c)
	bytes := 8 * float64(n) * float64(c)
	serial := tm.Seconds(Kernel{Flops: flops, Bytes: bytes, Parallelism: 1, Dispatches: 1})
	batched := tm.Seconds(Kernel{Flops: flops, Bytes: bytes, Parallelism: 32, Dispatches: 33})
	if batched >= serial {
		t.Fatalf("batched %v not below serial %v", batched, serial)
	}
}

func TestModelTimerComputeVsMemoryBound(t *testing.T) {
	m := gpu.M2090().Model
	tm := NewModelTimer(m)
	// Pure compute at full parallelism: flops / aggregate rate + dispatch.
	k := Kernel{Flops: 1e9, Parallelism: HostCores, Dispatches: 1}
	want := 1e9/(m.HostGflops*1e9) + dispatchSeconds
	if got := tm.Seconds(k); !close(got, want) {
		t.Fatalf("compute-bound time %v, want %v", got, want)
	}
	// Huge traffic, no flops: charged against the bandwidth share.
	k = Kernel{Bytes: 4e9, Parallelism: HostCores, Dispatches: 1}
	want = 4e9/m.HostMemBW + dispatchSeconds
	if got := tm.Seconds(k); !close(got, want) {
		t.Fatalf("memory-bound time %v, want %v", got, want)
	}
	// A single core only gets serialBWShare of the bus.
	k.Parallelism = 1
	want = 4e9/(m.HostMemBW*serialBWShare) + dispatchSeconds
	if got := tm.Seconds(k); !close(got, want) {
		t.Fatalf("serial memory-bound time %v, want %v", got, want)
	}
}

func TestModelTimerClampsParallelism(t *testing.T) {
	tm := NewModelTimer(gpu.M2090().Model)
	k := Kernel{Flops: 1e9, Parallelism: 10_000, Dispatches: 1}
	atCores := k
	atCores.Parallelism = HostCores
	if tm.Seconds(k) != tm.Seconds(atCores) {
		t.Fatal("parallelism above the core count must cap at the core count")
	}
	k.Parallelism = 0
	serial := k
	serial.Parallelism = 1
	if tm.Seconds(k) != tm.Seconds(serial) {
		t.Fatal("zero parallelism must mean serial")
	}
}

func TestModelTimerDispatchFloor(t *testing.T) {
	// Many tiny dispatches dominate: the property that makes BLAS-1 MGS
	// expensive before any data moves.
	tm := NewModelTimer(gpu.M2090().Model)
	tiny := Kernel{Flops: 10, Dispatches: 1000}
	if got := tm.Seconds(tiny); got < 1000*dispatchSeconds {
		t.Fatalf("dispatch floor not charged: %v", got)
	}
}

func TestModelTimerExecutesOnce(t *testing.T) {
	tm := NewModelTimer(gpu.M2090().Model)
	calls := 0
	tm.Time(Kernel{Flops: 1}, func() { calls++ })
	if calls != 1 {
		t.Fatalf("f called %d times, want 1", calls)
	}
}

func TestWallTimerRepetitions(t *testing.T) {
	wt := &WallTimer{}
	calls := 0
	s := wt.Time(Kernel{Name: "x"}, func() { calls++ })
	// The warmup, the calibration call, then wallReps-1 further batches of
	// at least one call each (the inner loop doubles while a batch is
	// shorter than wallMinBatch, so only the floor is exact).
	if calls < wallWarmup+wallReps {
		t.Fatalf("f called %d times, want >= %d", calls, wallWarmup+wallReps)
	}
	if s.Modeled {
		t.Fatal("wall sample marked modeled")
	}
	if s.Reps != wallReps {
		t.Fatalf("reps = %d", s.Reps)
	}
	if s.Seconds < 0 {
		t.Fatalf("negative time %v", s.Seconds)
	}
	if (&WallTimer{}).Deterministic() {
		t.Fatal("WallTimer must not report deterministic")
	}
}

func TestSampleGflops(t *testing.T) {
	s := Sample{Seconds: 0.5}
	if got := s.Gflops(1e9); got != 2 {
		t.Fatalf("gflops = %v", got)
	}
	if (Sample{}).Gflops(1e9) != 0 {
		t.Fatal("zero-time sample must report 0 Gflop/s")
	}
	if d := (Sample{Seconds: 1.5}).Duration(); d != 1500*time.Millisecond {
		t.Fatalf("duration = %v", d)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(a+b)
}
