package gpu

import "testing"

// TestChargeAllocations pins what one charge allocates: the solvers make
// thousands of rounds per solve, so one more object per round is a
// measurable share of a solve's allocs_per_op.
func TestChargeAllocations(t *testing.T) {
	bytes := []int{512, 1024, 2048, 4096}
	work := []Work{{Flops: 1e6, Bytes: 1e6}, {Flops: 1e6, Bytes: 1e6}, {Flops: 1e6, Bytes: 1e6}, {Flops: 1e6, Bytes: 1e6}}
	traffic := make([][]int, 4)
	for d := range traffic {
		traffic[d] = make([]int, 4)
		traffic[d][(d+1)%4] = 256
		traffic[d][(d+3)%4] = 128
	}
	halo := func(c *Context, traffic [][]int) func() {
		return func() { c.HaloExchangeElemOn("p", bytes, bytes, traffic, Elem64) }
	}
	kernel := func(d int) Work { return work[d] }
	partial := func(d int, part []float64) Work { return work[d] }
	out := make([]float64, 64)
	def := NewContext(4, M2090())
	sw := NewContext(4, pathsProfile(TopoPCIeSwitch, 0))
	cl := NewContext(4, pathsProfile(TopoPCIeSwitch, 2))
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"default DeviceKernelOn", 0, func() { def.DeviceKernelOn("p", work) }},
		{"default Gather", 0, func() { def.Gather("p", 64, Elem64) }},
		{"default Broadcast", 0, func() { def.Broadcast("p", 64, Elem32) }},
		// A bare RunAll allocates its shared state and one goroutine per
		// device (1 + 4, TestChargesShareTheViewsDeviceIDs); a launch adds
		// the closure it hands RunAll, an all-reduce one more around f.
		{"default Launch", 6, func() { def.Launch("p", kernel) }},
		{"default AllReduce", 7, func() { def.AllReduce("p", out, Elem64, partial) }},
		{"default HostComputeOn", 0, func() { def.HostComputeOn("p", 1e6) }},
		{"default host-path halo", 0, halo(def, traffic)},
		{"pcie-switch halo", 4, halo(sw, traffic)},
		{"clustered Gather", 2, func() { cl.Gather("p", 64, Elem64) }},
		{"clustered halo", 12, halo(cl, traffic)},
	} {
		tc.f() // first charge creates the phase rows
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %v allocations per charge, want at most %v", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %v", tc.name, got)
		}
	}
}
