package gpu

import "testing"

func TestHostKernelTimeParallelBeatsSerial(t *testing.T) {
	// The Figure 11(a,b) property as a model invariant: the batched
	// (panel-parallel) schedule of the same work is strictly faster than
	// the serial one-pass schedule for tall inputs.
	m := M2090().Model
	n, c := 1<<17, 30
	flops := float64(n) * float64(c) * float64(c)
	bytes := 8 * float64(n) * float64(c)
	serial := m.HostKernelTime(HostKernel{Flops: flops, Bytes: bytes, Parallelism: 1, Dispatches: 1})
	batched := m.HostKernelTime(HostKernel{Flops: flops, Bytes: bytes, Parallelism: 32, Dispatches: 33})
	if batched >= serial {
		t.Fatalf("batched %v not below serial %v", batched, serial)
	}
}

func TestHostKernelTimeComputeVsMemoryBound(t *testing.T) {
	m := M2090().Model
	// Pure compute at full parallelism: flops / aggregate rate + dispatch.
	k := HostKernel{Flops: 1e9, Parallelism: HostCores, Dispatches: 1}
	want := 1e9/(m.HostGflops*1e9) + dispatchSeconds
	if got := m.HostKernelTime(k); !approx(got, want, 1e-12) {
		t.Fatalf("compute-bound time %v, want %v", got, want)
	}
	// Huge traffic, no flops: charged against the bandwidth share.
	k = HostKernel{Bytes: 4e9, Parallelism: HostCores, Dispatches: 1}
	want = 4e9/m.HostMemBW + dispatchSeconds
	if got := m.HostKernelTime(k); !approx(got, want, 1e-12) {
		t.Fatalf("memory-bound time %v, want %v", got, want)
	}
	// A single core only gets serialBWShare of the bus.
	k.Parallelism = 1
	want = 4e9/(m.HostMemBW*serialBWShare) + dispatchSeconds
	if got := m.HostKernelTime(k); !approx(got, want, 1e-12) {
		t.Fatalf("serial memory-bound time %v, want %v", got, want)
	}
}

func TestHostKernelTimeClampsParallelism(t *testing.T) {
	m := M2090().Model
	k := HostKernel{Flops: 1e9, Parallelism: 10_000, Dispatches: 1}
	atCores := k
	atCores.Parallelism = HostCores
	if m.HostKernelTime(k) != m.HostKernelTime(atCores) {
		t.Fatal("parallelism above the core count must cap at the core count")
	}
	k.Parallelism = 0
	serial := k
	serial.Parallelism = 1
	if m.HostKernelTime(k) != m.HostKernelTime(serial) {
		t.Fatal("zero parallelism must mean serial")
	}
}

func TestHostKernelTimeDispatchFloor(t *testing.T) {
	// Many tiny dispatches dominate: the property that makes BLAS-1 MGS
	// expensive before any data moves.
	m := M2090().Model
	if got := m.HostKernelTime(HostKernel{Flops: 10, Dispatches: 1000}); got < 1000*dispatchSeconds {
		t.Fatalf("dispatch floor not charged: %v", got)
	}
}
