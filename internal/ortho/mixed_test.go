package ortho

import (
	"math/rand"
	"slices"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

func TestMixedCholQRFactorsCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	v := randTall(rng, 300, 8)
	for _, strat := range []TSQR{MixedCholQR{}, MixedCholQR{Refine: true}} {
		ctx := gpu.NewContext(2, gpu.M2090())
		w := splitRows(v.Clone(), 2)
		orig := CloneWindow(w)
		r, err := strat.Factor(ctx, w, "tsqr")
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		e := Measure(w, orig, r)
		// Single-precision Gram: orthogonality floor ~ eps_32.
		if e.Orthogonality > 1e-5 {
			t.Fatalf("%s: orthogonality %v", strat.Name(), e.Orthogonality)
		}
		// The factorization identity must hold to the f32 floor for
		// the single pass and far better with refinement.
		if e.Factorization > 1e-5 {
			t.Fatalf("%s: factorization %v", strat.Name(), e.Factorization)
		}
	}
}

func TestMixedCholQRRefinementRestoresAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	v := randTall(rng, 500, 10)

	ctx := gpu.NewContext(2, gpu.M2090())
	w1 := splitRows(v.Clone(), 2)
	o1 := CloneWindow(w1)
	r1, err := (MixedCholQR{}).Factor(ctx, w1, "tsqr")
	if err != nil {
		t.Fatal(err)
	}
	single := Measure(w1, o1, r1)

	w2 := splitRows(v.Clone(), 2)
	o2 := CloneWindow(w2)
	r2, err := (MixedCholQR{Refine: true}).Factor(ctx, w2, "tsqr")
	if err != nil {
		t.Fatal(err)
	}
	refined := Measure(w2, o2, r2)

	// The single pass bottoms out near eps_32...
	if single.Orthogonality < 1e-9 {
		t.Fatalf("single-pass orthogonality suspiciously good: %v", single.Orthogonality)
	}
	// ...and the refined pass recovers double-precision orthogonality.
	if refined.Orthogonality > 1e-12 {
		t.Fatalf("refined orthogonality %v, want ~eps_64", refined.Orthogonality)
	}
	if refined.Orthogonality*100 > single.Orthogonality {
		t.Fatalf("refinement did not clearly improve: %v -> %v",
			single.Orthogonality, refined.Orthogonality)
	}
}

func TestMixedCholQRHalvesGramVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	v := randTall(rng, 200, 6)

	ctxD := gpu.NewContext(3, gpu.M2090())
	wd := splitRows(v.Clone(), 3)
	ctxD.ResetStats()
	if _, err := (CholQR{}).Factor(ctxD, wd, "tsqr"); err != nil {
		t.Fatal(err)
	}
	doubleBytes := ctxD.Stats().Phase("tsqr").BytesD2H

	ctxS := gpu.NewContext(3, gpu.M2090())
	ws := splitRows(v.Clone(), 3)
	ctxS.ResetStats()
	if _, err := (MixedCholQR{}).Factor(ctxS, ws, "tsqr"); err != nil {
		t.Fatal(err)
	}
	singleBytes := ctxS.Stats().Phase("tsqr").BytesD2H

	if singleBytes*2 != doubleBytes {
		t.Fatalf("f32 Gram reduce %d bytes, f64 %d: expected exactly half", singleBytes, doubleBytes)
	}
	// Round count unchanged: still the 2-transfer profile.
	if ctxS.Stats().Phase("tsqr").Rounds != 2 {
		t.Fatalf("rounds = %d", ctxS.Stats().Phase("tsqr").Rounds)
	}
}

func TestGramF32MatchesF64WithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, rows := range []int{50, la.PanelRows + 100} {
		v := randTall(rng, rows, 5)
		g32 := la.NewDense(5, 5)
		g64 := la.NewDense(5, 5)
		la.GramF32(v, g32)
		la.Syrk(v, g64)
		if !g32.Equalish(g64, 1e-4*(1+g64.MaxAbs())) {
			t.Fatalf("rows=%d: f32 Gram too far from f64", rows)
		}
		// But not bit-identical (it really ran in single precision).
		if rows > 100 && g32.Equalish(g64, 1e-14) {
			t.Fatalf("rows=%d: f32 Gram suspiciously exact", rows)
		}
	}
}

func TestCGSUnfusedFactorsCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(310))
	v := randTall(rng, 250, 9)
	ctx := gpu.NewContext(3, gpu.M2090())
	w := splitRows(v.Clone(), 3)
	orig := CloneWindow(w)
	r, err := (CGSUnfused{}).Factor(ctx, w, "tsqr")
	if err != nil {
		t.Fatal(err)
	}
	e := Measure(w, orig, r)
	if e.Orthogonality > 1e-11 || e.Factorization > 1e-12 {
		t.Fatalf("errors %+v", e)
	}
	// Must agree with fused CGS on the same data.
	w2 := splitRows(v.Clone(), 3)
	r2, err := (CGS{}).Factor(ctx, w2, "tsqr")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equalish(r2, 1e-9*(1+r2.MaxAbs())) {
		t.Fatal("fused and unfused CGS disagree")
	}
}

func TestCGSUnfusedRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	v := randTall(rng, 100, 4)
	copy(v.Col(2), v.Col(0))
	ctx := gpu.NewContext(2, gpu.M2090())
	w := splitRows(v, 2)
	if _, err := (CGSUnfused{}).Factor(ctx, w, "tsqr"); err == nil {
		t.Fatal("expected rank deficiency")
	}
}

func TestMixedCholQRInSolverNames(t *testing.T) {
	if (MixedCholQR{}).Name() != "MixedCholQR" {
		t.Fatal("name")
	}
	if (MixedCholQR{Refine: true}).Name() != "MixedCholQR2" {
		t.Fatal("refined name")
	}
}

// TestMixedCholQRIsCholQRWithNarrowGram: MixedCholQR is CholQR with a
// single-precision Gram matrix, not a second algorithm — same Q bits, same
// R bits, same ledger, on every device count.
func TestMixedCholQRIsCholQRWithNarrowGram(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	v := condTall(rng, 400, 6, 1e3)
	for ng := 1; ng <= 4; ng++ {
		factor := func(strat TSQR) (q, r *la.Dense, ledger string) {
			ctx := gpu.NewContext(ng, gpu.M2090())
			w := splitRows(v.Clone(), ng)
			r, err := strat.Factor(ctx, w, "tsqr")
			if err != nil {
				t.Fatalf("%s ng=%d: %v", strat.Name(), ng, err)
			}
			return joinRows(w), r, ctx.Stats().String() + ctx.Stats().DeviceString()
		}
		q1, r1, l1 := factor(MixedCholQR{})
		q2, r2, l2 := factor(CholQR{GramElem: gpu.Elem32})
		if !slices.Equal(q1.Data, q2.Data) || !slices.Equal(r1.Data, r2.Data) {
			t.Fatalf("ng=%d: MixedCholQR and CholQR{GramElem: Elem32} differ in Q or R bits", ng)
		}
		if l1 != l2 {
			t.Fatalf("ng=%d: ledgers differ\n%s\nvs\n%s", ng, l1, l2)
		}
	}
}
