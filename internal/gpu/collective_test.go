package gpu

import (
	"fmt"
	"math"
	"testing"
)

// collectiveSequence is one reduction round trip through the collectives:
// an all-reduce of n values, the broadcast of the result, the kernel that
// consumes it. It returns the three events.
func collectiveSequence(c *Context, n int, elem Elem, work func(d int) Work) [3]float64 {
	out := make([]float64, n)
	red := c.AllReduce("orth", out, elem, func(d int, part []float64) Work {
		part[0] = float64(d + 1)
		return work(d)
	})
	bc := c.Broadcast("orth", n, elem)
	k := c.Launch("update", work, bc)
	return [3]float64{red.at, bc.at, k.at}
}

// handWrittenSequence is collectiveSequence the way every caller spelled
// it before the collectives existed: its own Work and byte vectors, RunAll,
// the stream charges and their event chain.
func handWrittenSequence(c *Context, n int, elem Elem, work func(d int) Work) [3]float64 {
	ng := c.NumDevices
	w := make([]Work, ng)
	bytes := make([]int, ng)
	for d := range bytes {
		bytes[d] = n * elem.Bytes()
	}
	c.RunAll(func(d int) { w[d] = work(d) })
	k := c.DeviceKernelOn("orth", w)
	red := c.commRound("orth", dirD2H, bytes, elem, []StreamEvent{k})
	bc := c.commRound("orth", dirH2D, bytes, elem, nil)
	c.RunAll(func(d int) { w[d] = work(d) })
	k = c.DeviceKernelOn("update", w, bc)
	return [3]float64{red.at, bc.at, k.at}
}

// TestCollectivesChargeTheHandWrittenSequence: on every topology, one node
// or two, both element widths, both schedules, a root context and a
// Survivors view, the collectives leave the ledger, both clocks and every
// returned event exactly where the hand-written protocol leaves them.
func TestCollectivesChargeTheHandWrittenSequence(t *testing.T) {
	for _, kind := range []TopoKind{TopoHostHub, TopoPCIeSwitch, TopoNVLinkRing, TopoAllToAll} {
		for _, perNode := range []int{0, 2} {
			for _, elem := range []Elem{Elem64, Elem32} {
				for _, overlap := range []bool{false, true} {
					for _, view := range []bool{false, true} {
						name := fmt.Sprintf("%s/nodes-of-%d/%s/overlap=%v/survivors=%v", kind, perNode, elem, overlap, view)
						var reports [2]string
						var events [2][2][3]float64
						for i, sequence := range []func(*Context, int, Elem, func(int) Work) [3]float64{collectiveSequence, handWrittenSequence} {
							root := NewContext(4, pathsProfile(kind, perNode))
							root.SetOverlap(overlap)
							c := root
							if view {
								c = surviving(t, root, 1)
							}
							work := func(d int) Work {
								return Work{Flops: 1e6 * float64(d+1), Bytes: 4e6, Elem: elem}
							}
							// Twice, with another width of reduction: the second
							// pass runs on scratch the first one left behind.
							events[i][0] = sequence(c, 36, elem, work)
							events[i][1] = sequence(c, 7, elem, work)
							st := root.Stats()
							reports[i] = fmt.Sprintf("%s%sserial %016x overlapped %016x", st.String(), st.DeviceString(),
								math.Float64bits(root.SerialTime()), math.Float64bits(root.OverlappedTime()))
						}
						if reports[0] != reports[1] {
							t.Errorf("%s: ledgers or clocks differ\ncollectives:\n%s\nhand-written:\n%s", name, reports[0], reports[1])
						}
						if events[0] != events[1] {
							t.Errorf("%s: events at %v, hand-written at %v", name, events[0], events[1])
						}
					}
				}
			}
		}
	}
}

// TestAllReduceSumsInDeviceOrder: the host sum is the left-to-right sum of
// the partials from zero, whatever order the devices finish in — on
// partials where the reverse order and a tree give other low bits — and a
// narrow width rounds it to float32.
func TestAllReduceSumsInDeviceOrder(t *testing.T) {
	partials := [][]float64{{1, 1e16}, {1e-16, 1}, {-1, -1e16}, {3e-16, 3}}
	want := make([]float64, 2)
	for i := range want {
		p := func(d int) float64 { return partials[d][i] }
		want[i] = 0 + p(0) + p(1) + p(2) + p(3)
		if reverse, tree := 0+p(3)+p(2)+p(1)+p(0), (p(0)+p(1))+(p(2)+p(3)); want[i] == reverse || want[i] == tree {
			t.Fatalf("column %d: the partials do not tell summation orders apart (%v, reversed %v, tree %v)", i, want[i], reverse, tree)
		}
	}
	c := NewContext(4, M2090())
	for _, elem := range []Elem{Elem64, Elem32} {
		for trial := 0; trial < 20; trial++ {
			got := []float64{math.NaN(), math.Inf(1)} // what out held must not matter
			c.AllReduce("p", got, elem, func(d int, part []float64) Work {
				copy(part, partials[d])
				return Work{}
			})
			for i := range want {
				w := want[i]
				if elem != Elem64 {
					w = float64(float32(w))
				}
				if got[i] != w {
					t.Fatalf("%s column %d: sum %v, want the device-order sum %v", elem, i, got[i], w)
				}
			}
		}
	}
}

// TestAllReducePartialsStartFromZero: a partial is zeroed on every
// hand-out, so nothing an earlier call — or one that panicked in the
// middle of its kernel — left behind can reach a later sum.
func TestAllReducePartialsStartFromZero(t *testing.T) {
	c := NewContext(3, M2090())
	poison := func(d int, part []float64) Work {
		for i := range part {
			part[i] = math.NaN()
		}
		return Work{}
	}
	out := make([]float64, 5)
	c.AllReduce("p", out, Elem64, poison)
	if !math.IsNaN(out[0]) {
		t.Fatalf("the poisoned reduction summed to %v", out)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a panicking kernel did not panic the all-reduce")
			}
		}()
		c.AllReduce("p", out, Elem64, func(d int, part []float64) Work {
			poison(d, part)
			if d == 1 {
				panic("device 1 fails mid-kernel")
			}
			return Work{}
		})
	}()
	for _, n := range []int{5, 3} {
		out = out[:n]
		c.AllReduce("p", out, Elem64, func(int, []float64) Work { return Work{} })
		for i, v := range out {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("n=%d: a reduction nobody contributed to sums to %v at %d", n, v, i)
			}
		}
	}
}

// TestAllReduceGrowsItsPartials: the scratch follows the widest reduction
// so far and serves narrower ones from the same memory (run under -race:
// the partials are grown by the orchestrating goroutine and written by the
// device goroutines).
func TestAllReduceGrowsItsPartials(t *testing.T) {
	c := NewContext(3, M2090())
	for _, n := range []int{1, 900, 1} {
		out := make([]float64, n)
		c.AllReduce("p", out, Elem64, func(d int, part []float64) Work {
			if len(part) != n {
				panic(fmt.Sprintf("device %d got a partial of %d values for a reduction of %d", d, len(part), n))
			}
			for i := range part {
				part[i] = float64((d + 1) * (i + 1))
			}
			return Work{}
		})
		for i, v := range out {
			if v != float64(6*(i+1)) {
				t.Fatalf("n=%d: out[%d] = %v, want %v", n, i, v, 6*(i+1))
			}
		}
	}
	if got := cap(c.scratch.parts[0]); got < 900 {
		t.Fatalf("partials shrank to %d values", got)
	}
}
