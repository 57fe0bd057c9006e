package gpu

import (
	"math"
	"sync"
	"testing"
)

func fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

func allEqual(x []float64, v float64) bool {
	for _, e := range x {
		if e != v {
			return false
		}
	}
	return true
}

// TestWorkspaceHandsOutZeroedDisjointMemory: what one holder carves out
// of a lane never overlaps, and what the previous holder left behind —
// NaN here — is never seen by the next.
func TestWorkspaceHandsOutZeroedDisjointMemory(t *testing.T) {
	c := NewContext(2, M2090())
	for round := 0; round < 3; round++ {
		ws := c.TakeWorkspace()
		bufs := [][]float64{ws.Floats(0, 10), ws.Floats(0, 20), ws.Floats(1, 7), ws.Floats(HostDevice, 5), ws.Floats(0, 3)}
		for i, b := range bufs {
			if !allEqual(b, 0) {
				t.Fatalf("round %d: buffer %d handed out dirty: %v", round, i, b)
			}
			fill(b, float64(i+1))
		}
		for i, b := range bufs {
			if !allEqual(b, float64(i+1)) {
				t.Fatalf("round %d: buffer %d overwritten by a later one: %v", round, i, b)
			}
			if cap(b) != len(b) {
				t.Fatalf("round %d: buffer %d can grow into its neighbour: len %d cap %d", round, i, len(b), cap(b))
			}
			fill(b, math.NaN())
		}
		ws.Release()
	}
	if got, want := c.WorkspaceBytes(), (33+7+5)*ScalarBytes; got != want {
		t.Fatalf("workspace holds %d bytes after three identical holders, want their demand %d", got, want)
	}
}

// TestWorkspaceGrowsToHighWaterMark: a lane that was too small serves the
// overflow from the heap, is regrown at release to what its holder asked
// of it, and never shrinks.
func TestWorkspaceGrowsToHighWaterMark(t *testing.T) {
	c := NewContext(1, M2090())
	hold := func(sizes ...int) (first *float64) {
		ws := c.TakeWorkspace()
		defer ws.Release()
		for i, n := range sizes {
			b := ws.Floats(0, n)
			if i == 0 {
				first = &b[0]
			}
		}
		return first
	}
	hold(60, 40)
	if got := c.WorkspaceBytes(); got != 100*ScalarBytes {
		t.Fatalf("lane regrown to %d bytes, want its holder's demand %d", got, 100*ScalarBytes)
	}
	a := hold(60, 40)
	if b := hold(10); b != a || c.WorkspaceBytes() != 100*ScalarBytes {
		t.Fatalf("a smaller holder moved or shrank the lane: %p vs %p, %d bytes", b, a, c.WorkspaceBytes())
	}
	hold(150)
	if got := c.WorkspaceBytes(); got != 150*ScalarBytes {
		t.Fatalf("lane holds %d bytes after a 150-float holder, want %d", got, 150*ScalarBytes)
	}
	c.ResetStats()
	c.SetProfile(c.Profile())
	if got := c.WorkspaceBytes(); got != 150*ScalarBytes {
		t.Fatalf("ResetStats/SetProfile touched the workspace: %d bytes", got)
	}
}

// TestSecondTakerGetsTheHeap: while a claim is out every other taker is
// served from the heap, so two holders never share memory; the released
// memory goes to the next taker.
func TestSecondTakerGetsTheHeap(t *testing.T) {
	c := NewContext(1, M2090())
	warm := c.TakeWorkspace()
	warm.Floats(0, 64)
	warm.Release() // the lane now holds 64 floats
	ws1 := c.TakeWorkspace()
	a := ws1.Floats(0, 64)
	fill(a, 1)
	ws2 := c.TakeWorkspace()
	b := ws2.Floats(0, 64)
	fill(b, 2)
	if !allEqual(a, 1) || !allEqual(b, 2) {
		t.Fatal("two takes without a release alias")
	}
	ws2.Release()
	ws3 := c.TakeWorkspace() // ws1 is still out
	if x := ws3.Floats(0, 64); &x[0] == &a[0] {
		t.Fatal("releasing the heap-backed workspace freed the first holder's claim")
	}
	ws3.Release()
	ws1.Release()
	ws1.Release() // a second release must not free the next holder's claim
	ws4 := c.TakeWorkspace()
	if x := ws4.Floats(0, 64); &x[0] != &a[0] || !allEqual(x, 0) {
		t.Fatal("released memory not handed, zeroed, to the next taker")
	}
	if x := c.TakeWorkspace().Floats(0, 64); &x[0] == &a[0] {
		t.Fatal("double release let a second taker in")
	}
}

// TestSurvivorsViewDrawsFromRootLanes: a view shares its root's memory —
// one claim between them — and a logical device draws from its physical
// device's lane.
func TestSurvivorsViewDrawsFromRootLanes(t *testing.T) {
	c := NewContext(3, M2090())
	c.InjectFaults(FaultPlan{Deaths: []DeviceDeath{{Device: 1, At: 0}}})
	if err := chargeRound(c); err == nil {
		t.Fatal("expected immediate death")
	}
	surv, err := c.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	ws := c.TakeWorkspace()
	ws.Floats(2, 8)
	ws.Release() // physical device 2's lane now holds 8 floats
	ws = c.TakeWorkspace()
	x := ws.Floats(2, 8)
	if y := surv.TakeWorkspace().Floats(1, 8); &y[0] == &x[0] {
		t.Fatal("view took the memory its root holds")
	}
	ws.Release()
	ws = surv.TakeWorkspace()
	if y := ws.Floats(1, 8); &y[0] != &x[0] {
		t.Fatal("logical device 1 of the view does not draw from physical device 2's lane")
	}
	ws.Release()
	if surv.WorkspaceBytes() != c.WorkspaceBytes() || c.WorkspaceBytes() != 8*ScalarBytes {
		t.Fatalf("view reports %d bytes, root %d, want %d", surv.WorkspaceBytes(), c.WorkspaceBytes(), 8*ScalarBytes)
	}
}

// TestWorkspaceConcurrentTakers (run under -race): goroutines misusing
// one context each see only their own writes, whoever holds the arena.
func TestWorkspaceConcurrentTakers(t *testing.T) {
	c := NewContext(2, M2090())
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func(id float64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ws := c.TakeWorkspace()
				a, b := ws.Floats(0, 32), ws.Floats(HostDevice, 16)
				if !allEqual(a, 0) || !allEqual(b, 0) {
					t.Error("dirty memory handed out")
				}
				fill(a, id)
				fill(b, -id)
				c.WorkspaceBytes()
				if !allEqual(a, id) || !allEqual(b, -id) {
					t.Error("another holder wrote into this one's memory")
				}
				ws.Release()
			}
		}(float64(g))
	}
	wg.Wait()
}
