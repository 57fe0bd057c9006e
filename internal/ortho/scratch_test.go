package ortho

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// everyStrategy lists every name ByName accepts (one spelling each),
// their 2x forms and CGSUnfused.
func everyStrategy(t *testing.T) []TSQR {
	var out []TSQR
	for _, prefix := range []string{"", "2x"} {
		for _, name := range []string{"MGS", "CGS", "CholQR", "SVQR", "CAQR", "MixedCholQR", "MixedCholQR2"} {
			s, err := ByName(prefix + name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	return append(out, CGSUnfused{})
}

// TestNonFiniteWindowIsRankDeficient: a window holding a NaN or an
// infinity does not factor, whatever the strategy, bound or not — every
// one returns ErrRankDeficient and no R. core's breakdown classification
// relies on it: it only looks for a non-finite basis after a TSQR failure.
func TestNonFiniteWindowIsRankDeficient(t *testing.T) {
	const n, c, ng = 60, 5, 2
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, s := range everyStrategy(t) {
			for _, bound := range []bool{false, true} {
				ctx := gpu.NewContext(ng, gpu.M2090())
				w := splitRows(randTall(rand.New(rand.NewSource(1)), n, c), ng)
				w[1].Set(3, 2, bad)
				strat := s
				if bound {
					strat = NewScratch(&gpu.Workspace{}, c, 0).Bind(s)
				}
				r, err := strat.Factor(ctx, w, "tsqr")
				if !errors.Is(err, ErrRankDeficient) || r != nil {
					t.Errorf("%s (bound %v) on a window holding %v: R %v, err %v; want no R and ErrRankDeficient",
						s.Name(), bound, bad, r != nil, err)
				}
			}
		}
	}
}

// TestBoundStrategiesAllocateNothing: once warm, one Factor of a
// strategy bound to a scratch, and one Project of a bound BOrth, allocate
// nothing at fp64 and, where the strategy has one, at its fp32 width. SVQR
// and CAQR keep allocating in their host factorizations; their counts are
// logged. Each device's panel is taller than la.PanelRows, so the batched
// Gram and projection kernels sum several row panels.
func TestBoundStrategiesAllocateNothing(t *testing.T) {
	const n, c, pc, ng = 3*la.PanelRows + 300, 6, 9, 3
	rng := rand.New(rand.NewSource(5))
	ctx := gpu.NewContext(ng, gpu.M2090())
	sc := NewScratch(&gpu.Workspace{}, c, pc)
	for _, tc := range []struct {
		s      TSQR
		fp32   bool
		allocs bool
	}{
		{s: CholQR{}},
		{s: CholQR{GramElem: gpu.Elem32}, fp32: true},
		{s: CGS{}},
		{s: MGS{}},
		{s: CGSUnfused{}},
		{s: Reorth{Inner: CholQR{}}},
		{s: Reorth{Inner: CGS{}}},
		{s: MixedCholQR{}, fp32: true},
		{s: MixedCholQR{Refine: true}, fp32: true},
		{s: SVQR{}, allocs: true},
		{s: CAQR{}, allocs: true},
	} {
		w := splitRows(randTall(rng, n, c), ng)
		s := sc.Bind(tc.s)
		f := func() {
			if _, err := s.Factor(ctx, w, "tsqr"); err != nil {
				t.Fatal(err)
			}
		}
		f() // first charge creates the phase rows
		got := testing.AllocsPerRun(20, f)
		switch {
		case tc.allocs:
			t.Logf("%s: %v allocations per window", s.Name(), got)
		case tc.fp32 && raceEnabled:
			// The fp32 kernels pool their float32 accumulators, and
			// sync.Pool drops items at random under -race.
		case got != 0:
			t.Errorf("%s (fp32 %v): %v allocations per window, want 0", s.Name(), tc.fp32, got)
		}
	}
	for _, tc := range []struct {
		b    BOrth
		fp32 bool
	}{
		{b: BOrthCGS{}},
		{b: BOrthCGS{Elem: gpu.Elem32}, fp32: true},
		{b: BOrthMGS{}},
	} {
		p := splitRows(randTall(rng, n, pc), ng)
		w := splitRows(randTall(rng, n, c), ng)
		b := sc.BindBOrth(tc.b)
		f := func() { b.Project(ctx, p, w, "borth") }
		f()
		if got := testing.AllocsPerRun(20, f); got != 0 && !(tc.fp32 && raceEnabled) {
			t.Errorf("%s (fp32 %v): %v allocations per window, want 0", b.Name(), tc.fp32, got)
		}
	}
}

// TestBoundTwoPassMatchesUnbound: the two-pass strategies keep R1 apart
// from the second pass's R and from R = R2 R1. Bound, they return the R
// and Q of the zero-value strategy bit for bit, and of the two passes run
// one after the other on scratches of their own; a second window through
// the same scratch, straight after the first, does too.
func TestBoundTwoPassMatchesUnbound(t *testing.T) {
	const n, c, ng = 240, 5, 3
	rng := rand.New(rand.NewSource(8))
	windows := []*la.Dense{condTall(rng, n, c, 1e3), condTall(rng, n, c, 1e2)}
	factor := func(t *testing.T, v *la.Dense, passes ...TSQR) (q, r *la.Dense) {
		t.Helper()
		w := splitRows(v, ng)
		ctx := gpu.NewContext(ng, gpu.M2090())
		for _, s := range passes {
			ri, err := s.Factor(ctx, w, "tsqr")
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if r == nil {
				r = ri.Clone()
				continue
			}
			prod := la.NewDense(c, c)
			la.GemmNN(1, ri, r, 0, prod)
			r = prod
		}
		return joinRows(w), r
	}
	same := func(a, b *la.Dense) bool { return a.Rows == b.Rows && slices.Equal(a.Data, b.Data) }
	for _, tc := range []struct {
		s      TSQR
		passes [2]TSQR
	}{
		{Reorth{Inner: CholQR{}}, [2]TSQR{CholQR{}, CholQR{}}},
		{Reorth{Inner: CGS{}}, [2]TSQR{CGS{}, CGS{}}},
		{MixedCholQR{Refine: true}, [2]TSQR{CholQR{GramElem: gpu.Elem32}, CholQR{}}},
	} {
		check := func(t *testing.T, bound TSQR, v *la.Dense) {
			t.Helper()
			q0, r0 := factor(t, v, tc.s)
			qp, rp := factor(t, v, tc.passes[:]...)
			q, r := factor(t, v, bound)
			if !same(q0, qp) || !same(r0, rp) {
				t.Fatal("zero value differs from its two passes")
			}
			if !same(q, q0) || !same(r, r0) {
				t.Fatal("bound strategy differs from the zero value")
			}
		}
		t.Run(tc.s.Name(), func(t *testing.T) {
			check(t, NewScratch(&gpu.Workspace{}, c, 0).Bind(tc.s), windows[0])
		})
		t.Run(tc.s.Name()+"/back-to-back", func(t *testing.T) {
			bound := NewScratch(&gpu.Workspace{}, c, 0).Bind(tc.s)
			for _, v := range windows {
				check(t, bound, v)
			}
		})
	}
}
