package bench

import (
	"reflect"
	"testing"
)

// splitOverload indexes figOverload rows by (containment, load).
func splitOverload(t *testing.T, rows []overloadRow) (off, on map[float64]overloadRow) {
	t.Helper()
	off = make(map[float64]overloadRow)
	on = make(map[float64]overloadRow)
	for _, r := range rows {
		if r.Containment {
			on[r.Load] = r
		} else {
			off[r.Load] = r
		}
	}
	if len(off) != len(overLoads) || len(on) != len(overLoads) {
		t.Fatalf("expected %d loads per arm, got off=%d on=%d", len(overLoads), len(off), len(on))
	}
	return off, on
}

// TestFigOverloadShapes asserts the study's reproduction targets: the
// uncontained arm storms (reroutes per offered job grow superlinearly
// with load and goodput collapses past saturation), the contained arm
// holds goodput near capacity at 4x offered load with reroutes bounded
// by the retry-budget invariant.
func TestFigOverloadShapes(t *testing.T) {
	rows := figOverload(Config{Scale: 0.02})
	off, on := splitOverload(t, rows)

	// Sanity: every cell conserves its arrivals.
	for _, r := range rows {
		if r.Served+r.Late+r.Rejected+r.Shed != r.Offered {
			t.Fatalf("containment=%v load=%g: served %d + late %d + rejected %d + shed %d != offered %d",
				r.Containment, r.Load, r.Served, r.Late, r.Rejected, r.Shed, r.Offered)
		}
		if r.Offered == 0 {
			t.Fatalf("containment=%v load=%g: no arrivals", r.Containment, r.Load)
		}
	}

	// At capacity both arms are healthy.
	if f := off[1].GoodputFrac; f < 0.9 {
		t.Errorf("off arm at 1x should be healthy, goodput frac %.3f", f)
	}
	if f := on[1].GoodputFrac; f < 0.9 {
		t.Errorf("on arm at 1x should be healthy, goodput frac %.3f", f)
	}

	// The acceptance target: containment holds goodput at 4x offered load.
	if f := on[4].GoodputFrac; f < 0.8 {
		t.Errorf("contained goodput frac at 4x = %.3f, want >= 0.8", f)
	}
	// The cliff: the uncontained arm collapses at the same load.
	if offF, onF := off[4].GoodputFrac, on[4].GoodputFrac; offF >= onF/2 {
		t.Errorf("uncontained goodput frac at 4x = %.3f, want well below contained %.3f", offF, onF)
	}

	// Retry storm: reroutes per offered job grow superlinearly with load
	// when containment is off — each step up in load more than doubles
	// the growth is too strong; assert strictly increasing per-job rate
	// and that the 1x->4x rate grows by more than the 4x load ratio.
	rate := func(r overloadRow) float64 { return float64(r.Reroutes) / float64(r.Offered) }
	for i := 1; i < len(overLoads); i++ {
		lo, hi := overLoads[i-1], overLoads[i]
		if rate(off[hi]) <= rate(off[lo]) {
			t.Errorf("off arm reroutes/offered not increasing: %g at %gx vs %g at %gx",
				rate(off[hi]), hi, rate(off[lo]), lo)
		}
	}
	if r1, r4 := rate(off[1]), rate(off[4]); r4 <= 4*r1+1e-9 && r4 < 1 {
		t.Errorf("off arm reroutes/offered should grow superlinearly: %g at 1x, %g at 4x", r1, r4)
	}

	// Budget invariant: with containment on, forwards past first choice
	// are bounded by ratio * completions + burst.
	for _, load := range overLoads {
		r := on[load]
		bound := overBudgetRatio*float64(r.Served+r.Late) + overBudgetBurst
		if float64(r.Reroutes) > bound+1e-9 {
			t.Errorf("on arm at %gx: reroutes %d exceed budget bound %.1f", load, r.Reroutes, bound)
		}
	}
	// And the uncontained storm visibly exceeds the contained arm at 4x.
	if off[4].Reroutes <= on[4].Reroutes {
		t.Errorf("off arm reroutes at 4x (%d) should exceed on arm (%d)", off[4].Reroutes, on[4].Reroutes)
	}
}

// TestFigOverloadDeterministic replays the study and requires
// bit-identical rows: the simulation is exact arithmetic over the
// modeled solve time, with no wall-clock or RNG input.
func TestFigOverloadDeterministic(t *testing.T) {
	a := figOverload(Config{Scale: 0.02})
	b := figOverload(Config{Scale: 0.02})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("figOverload replay not bit-identical:\n%+v\nvs\n%+v", a, b)
	}
}
