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
		// A fork keeps its state on the context and starts its goroutines
		// without arguments (TestChargesShareTheViewsDeviceIDs), and the
		// collectives' device bodies are the context's, built once: a
		// launch or an all-reduce allocates only what its caller's f does.
		{"default Launch", 0, func() { def.Launch("p", kernel) }},
		{"default AllReduce", 0, func() { def.AllReduce("p", out, Elem64, partial) }},
		{"default HostComputeOn", 0, func() { def.HostComputeOn("p", 1e6) }},
		{"default host-path halo", 0, halo(def, traffic)},
		// A peer round's ledger tallies are the ledger's own, and its
		// route's link loads the context's.
		{"pcie-switch halo", 0, halo(sw, traffic)},
		{"clustered Gather", 0, func() { cl.Gather("p", 64, Elem64) }},
		{"clustered halo", 0, halo(cl, traffic)},
		{"default TotalTime", 0, func() { def.Stats().TotalTime() }},
		{"default Phase", 0, func() { def.Stats().Phase("p") }},
		{"default DevicePhase", 0, func() { def.Stats().DevicePhase(1, "p") }},
	} {
		tc.f() // first charge creates the phase rows
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %v allocations per charge, want at most %v", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %v", tc.name, got)
		}
	}
}

// TestFreshLedgerAllocations pins what a solve pays for its ledger: a
// fresh one per ResetStats, whose rows cover every registered phase on
// every device, so the solve's first charge to each phase allocates no
// more than the later ones.
func TestFreshLedgerAllocations(t *testing.T) {
	RegisterPhases("fresh-a", "fresh-b")
	if got := testing.AllocsPerRun(100, func() { newStats(3) }); got > 3 {
		t.Errorf("a fresh ledger: %v allocations, want at most 3", got)
	}
	c := NewContext(3, M2090())
	out := make([]float64, 8)
	kernel := func(d int) Work { return Work{Flops: 1e6, Bytes: 1e6} }
	partial := func(d int, part []float64) Work { return Work{Flops: 8} }
	solve := func() {
		c.ResetStats()
		c.Launch("fresh-a", kernel)
		c.AllReduce("fresh-b", out, Elem64, partial)
		c.HostComputeOn("fresh-a", 1e3)
		c.Stats().TotalTime()
	}
	solve() // the fork's thunks and the collectives' scratch
	// Three for the ledger, two for the timeline and its cursors.
	if got := testing.AllocsPerRun(100, solve); got > 5 {
		t.Errorf("ResetStats and a first charge per phase: %v allocations, want at most 5", got)
	}
}

// TestLedgerGrowsForLateNames: a name registered after a ledger was made
// (a test's ad-hoc phase) and a device beyond the ones it was sized for
// grow its rows in place, keeping every charge already on them.
func TestLedgerGrowsForLateNames(t *testing.T) {
	s := newStats(1)
	s.addCompute("late-z", []int{0}, []float64{1}, []Work{{Flops: 2}})
	s.addCompute("late-z", []int{2}, []float64{3}, []Work{{Flops: 4}})
	s.addHost("late-a", 5, 6)
	if got := s.Phases(); len(got) != 2 || got[0] != "late-a" || got[1] != "late-z" {
		t.Fatalf("Phases() = %q, want [late-a late-z]", got)
	}
	if n := s.TrackedDevices(); n != 3 {
		t.Fatalf("TrackedDevices() = %d, want 3", n)
	}
	for d, want := range []PhaseStats{{DeviceTime: 1, DeviceFlops: 2, Kernels: 1}, {}, {DeviceTime: 3, DeviceFlops: 4, Kernels: 1}} {
		if got := s.DevicePhase(d, "late-z"); got != want {
			t.Errorf("DevicePhase(%d, late-z) = %+v, want %+v", d, got, want)
		}
	}
	if got := s.Phase("late-z"); got != (PhaseStats{DeviceTime: 4, DeviceFlops: 6, Kernels: 2}) {
		t.Errorf("Phase(late-z) = %+v", got)
	}
	if got, want := s.TotalTime(), 5.0+4; got != want {
		t.Errorf("TotalTime() = %v, want %v", got, want)
	}
	if got := s.Phase("never-charged"); got != (PhaseStats{}) {
		t.Errorf("Phase of an unknown name = %+v, want zero", got)
	}
}

// BenchmarkStatsCharge times one kernel charge of a 3-device launch on
// the ledger and the timeline (the Launch without its fork): on a ledger
// that already holds the phase, and on a fresh one, as a solve's first
// charge of each phase is.
func BenchmarkStatsCharge(b *testing.B) {
	c := NewContext(3, M2090())
	work := []Work{{Flops: 1e6, Bytes: 1e6}, {Flops: 1e6, Bytes: 1e6}, {Flops: 1e6, Bytes: 1e6}}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.DeviceKernelOn("p", work)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ResetStats()
			c.DeviceKernelOn("p", work)
		}
	})
}
