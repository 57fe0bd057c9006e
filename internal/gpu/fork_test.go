package gpu

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestForkContract: a fork's state stays on the context between forks, so
// every fork — one that returns, one that re-raises a device's panic, one
// refused for nesting or for racing another — must leave none of it behind: no guard held, no
// device code, no panic value, no collective body's f, and no goroutine.
func TestForkContract(t *testing.T) {
	raised := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	clean := func(t *testing.T, c *Context) {
		t.Helper()
		if c.run.busy.Load() || c.run.f != nil || c.run.value != nil || c.scratch.kernel != nil || c.scratch.partial != nil {
			t.Fatalf("fork state left behind: busy %v, f set %v, value %v, kernel set %v, partial set %v",
				c.run.busy.Load(), c.run.f != nil, c.run.value, c.scratch.kernel != nil, c.scratch.partial != nil)
		}
	}
	// fork runs one case and then waits for the goroutine count to be
	// back where the case started it.
	fork := func(name string, f func(t *testing.T)) {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			f(t)
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d at the start, %d after the case", base, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	c := NewContext(3, M2090())

	fork("lowest panic re-raised", func(t *testing.T) {
		v := raised(func() {
			c.RunAll(func(d int) {
				if d > 0 {
					panic(d)
				}
			})
		})
		if v != 1 {
			t.Fatalf("re-raised %v, want device 1's value", v)
		}
		clean(t, c)
	})

	fork("next fork runs the new f", func(t *testing.T) {
		ran := make([]int, c.NumDevices)
		if v := raised(func() { c.RunAll(func(d int) { ran[d]++ }) }); v != nil {
			t.Fatalf("a fork after a re-raised panic raised %v", v)
		}
		for d, n := range ran {
			if n != 1 {
				t.Fatalf("device %d ran the new f %d times", d, n)
			}
		}
		clean(t, c)
	})

	fork("collectives clear their f", func(t *testing.T) {
		if v := raised(func() { c.Launch("p", func(d int) Work { panic("launch") }) }); v != "launch" {
			t.Fatalf("Launch re-raised %v", v)
		}
		clean(t, c)
		out := make([]float64, 2)
		if v := raised(func() {
			c.AllReduce("p", out, Elem64, func(d int, part []float64) Work { panic("reduce") })
		}); v != "reduce" {
			t.Fatalf("AllReduce re-raised %v", v)
		}
		clean(t, c)
		c.AllReduce("p", out, Elem64, func(d int, part []float64) Work {
			part[0], part[1] = 1, float64(d)
			return Work{}
		})
		if out[0] != 3 || out[1] != 3 {
			t.Fatalf("AllReduce after a panicked one summed %v, want [3 3]", out)
		}
		clean(t, c)
	})

	fork("nested fork refused", func(t *testing.T) {
		// Each of the three forks, nested in the last device's code of each:
		// the guard refuses it before it touches the outer fork's state, so
		// the other devices finish the outer fork and its message is the
		// one re-raised.
		out := make([]float64, 1)
		forks := map[string]func(body func(d int)){
			"RunAll": func(body func(d int)) { c.RunAll(body) },
			"Launch": func(body func(d int)) {
				c.Launch("p", func(d int) Work { body(d); return Work{} })
			},
			"AllReduce": func(body func(d int)) {
				c.AllReduce("p", out, Elem64, func(d int, _ []float64) Work { body(d); return Work{} })
			},
		}
		for outer, runOuter := range forks {
			for inner, runInner := range forks {
				done := make(chan any, 1)
				go func() {
					done <- raised(func() {
						runOuter(func(d int) {
							if d == c.NumDevices-1 {
								runInner(func(int) {})
							}
						})
					})
				}()
				select {
				case v := <-done:
					if s, _ := v.(string); !strings.Contains(s, "whose fork is in flight") {
						t.Fatalf("%s nested in %s raised %v, want the guard's message", inner, outer, v)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s nested in %s deadlocked", inner, outer)
				}
				clean(t, c)
			}
		}
	})

	fork("concurrent fork refused", func(t *testing.T) {
		inFlight, refused := make(chan struct{}), make(chan struct{})
		done := make(chan any, 1)
		go func() {
			done <- raised(func() {
				c.RunAll(func(d int) {
					if d == 0 {
						close(inFlight)
						<-refused
					}
				})
			})
		}()
		<-inFlight
		v := raised(func() { c.RunAll(func(int) { panic("the second fork ran") }) })
		close(refused)
		if s, _ := v.(string); !strings.Contains(s, "whose fork is in flight") {
			t.Fatalf("a second goroutine's fork raised %v, want the guard's message", v)
		}
		if v := <-done; v != nil {
			t.Fatalf("the fork in flight raised %v", v)
		}
		clean(t, c)
	})

	fork("survivors view forks on its own state", func(t *testing.T) {
		root := NewContext(3, M2090())
		root.InjectFaults(FaultPlan{Deaths: []DeviceDeath{{Device: 1, At: 0}}})
		if v := raised(func() { root.Launch("p", every(Work{Flops: 1})) }); v == nil {
			t.Fatal("the scheduled death did not fire")
		}
		thunks := root.run.thunks
		view, err := root.Survivors()
		if err != nil {
			t.Fatal(err)
		}
		ran := make([]int, view.NumDevices)
		view.RunAll(func(d int) {
			if root.run.busy.Load() || root.run.f != nil {
				panic("the view's fork took its root's state")
			}
			ran[d]++
		})
		for d, n := range ran {
			if n != 1 {
				t.Fatalf("view device %d ran %d times", d, n)
			}
		}
		if len(view.run.thunks) != view.NumDevices || &root.run.thunks[0] != &thunks[0] {
			t.Fatalf("view thunks %d for %d devices, root's rebuilt %v", len(view.run.thunks), view.NumDevices, &root.run.thunks[0] != &thunks[0])
		}
		clean(t, view)
		clean(t, root)
	})
}

// BenchmarkRunAll times one bare fork-join on 3 devices — the floor under
// every kernel a solve launches — and BenchmarkLaunch the same fork as a
// charged kernel. Both report 0 allocs/op.
func BenchmarkRunAll(b *testing.B) {
	c := NewContext(3, M2090())
	nop := func(int) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.RunAll(nop)
	}
}

func BenchmarkLaunch(b *testing.B) {
	c := NewContext(3, M2090())
	kernel := every(Work{Flops: 1e6, Bytes: 1e6})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Launch("p", kernel)
	}
}
