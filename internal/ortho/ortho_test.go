package ortho

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// splitRows scatters an n x c host matrix into ng per-device panels.
func splitRows(v *la.Dense, ng int) []*la.Dense {
	n := v.Rows
	base, rem := n/ng, n%ng
	out := make([]*la.Dense, ng)
	r0 := 0
	for d := 0; d < ng; d++ {
		rows := base
		if d < rem {
			rows++
		}
		p := la.NewDense(rows, v.Cols)
		for j := 0; j < v.Cols; j++ {
			copy(p.Col(j), v.Col(j)[r0:r0+rows])
		}
		out[d] = p
		r0 += rows
	}
	return out
}

// joinRows reassembles the panels into one host matrix.
func joinRows(w []*la.Dense) *la.Dense {
	n := 0
	for _, p := range w {
		n += p.Rows
	}
	c := cols(w)
	v := la.NewDense(n, c)
	r0 := 0
	for _, p := range w {
		for j := 0; j < c; j++ {
			copy(v.Col(j)[r0:r0+p.Rows], p.Col(j))
		}
		r0 += p.Rows
	}
	return v
}

// randTall returns a random well-conditioned n x c matrix.
func randTall(rng *rand.Rand, n, c int) *la.Dense {
	v := la.NewDense(n, c)
	for j := 0; j < c; j++ {
		col := v.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	return v
}

// condTall builds an n x c matrix with prescribed 2-norm condition
// number: Q1 * diag(geometric decay) * Q2'.
func condTall(rng *rand.Rand, n, c int, cond float64) *la.Dense {
	q1 := la.HouseholderQR(randTall(rng, n, c)).FormQ()
	q2 := la.HouseholderQR(randTall(rng, c, c)).FormQ()
	s := la.NewDense(c, c)
	for i := 0; i < c; i++ {
		expo := float64(i) / float64(c-1)
		s.Set(i, i, math.Pow(cond, -expo))
	}
	tmp := la.NewDense(n, c)
	la.GemmNN(1, q1, s, 0, tmp)
	out := la.NewDense(n, c)
	q2t := q2.Transpose()
	la.GemmNN(1, tmp, q2t, 0, out)
	return out
}

func upperTriangular(r *la.Dense) bool {
	for j := 0; j < r.Cols; j++ {
		for i := j + 1; i < r.Rows; i++ {
			if r.At(i, j) != 0 {
				return false
			}
		}
	}
	return true
}

func TestAllStrategiesFactorCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, strat := range All() {
		for _, ng := range []int{1, 2, 3} {
			ctx := gpu.NewContext(ng, gpu.M2090())
			v := randTall(rng, 200, 7)
			w := splitRows(v, ng)
			orig := CloneWindow(w)
			r, err := strat.Factor(ctx, w, "tsqr")
			if err != nil {
				t.Fatalf("%s ng=%d: %v", strat.Name(), ng, err)
			}
			if !upperTriangular(r) {
				t.Fatalf("%s ng=%d: R not upper triangular", strat.Name(), ng)
			}
			e := Measure(w, orig, r)
			if e.Orthogonality > 1e-10 {
				t.Fatalf("%s ng=%d: orthogonality %v", strat.Name(), ng, e.Orthogonality)
			}
			if e.Factorization > 1e-12 {
				t.Fatalf("%s ng=%d: factorization %v", strat.Name(), ng, e.Factorization)
			}
		}
	}
}

func TestStrategiesAgreeAcrossDeviceCounts(t *testing.T) {
	// The Q and R factors (after sign normalization) must not depend on
	// how many devices the rows are split over.
	rng := rand.New(rand.NewSource(101))
	v := randTall(rng, 150, 5)
	for _, strat := range All() {
		var ref *la.Dense
		for _, ng := range []int{1, 3} {
			ctx := gpu.NewContext(ng, gpu.M2090())
			w := splitRows(v.Clone(), ng)
			r, err := strat.Factor(ctx, w, "tsqr")
			if err != nil {
				t.Fatalf("%s: %v", strat.Name(), err)
			}
			q := joinRows(w)
			la.FixRSigns(q, r)
			if ref == nil {
				ref = q
			} else if !q.Equalish(ref, 1e-8) {
				t.Fatalf("%s: Q differs between 1 and 3 devices", strat.Name())
			}
		}
	}
}

func TestRMatchesHouseholderReference(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	v := randTall(rng, 90, 4)
	fref := la.HouseholderQR(v)
	rref := fref.R()
	la.FixRSigns(nil, rref)
	for _, strat := range All() {
		ctx := gpu.NewContext(2, gpu.M2090())
		w := splitRows(v.Clone(), 2)
		r, err := strat.Factor(ctx, w, "tsqr")
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		la.FixRSigns(nil, r)
		if !r.Equalish(rref, 1e-9*(1+rref.MaxAbs())) {
			t.Fatalf("%s: R mismatch with Householder reference", strat.Name())
		}
	}
}

func TestCommunicationCountsMatchFigure10(t *testing.T) {
	// Figure 10: per window of s+1 columns, MGS uses (s+1)(s+2)
	// transfers, CGS 2(s+1), CholQR/SVQR/CAQR 2.
	rng := rand.New(rand.NewSource(103))
	s := 6
	c := s + 1
	v := randTall(rng, 300, c)
	want := map[string]int{
		"MGS":    (s + 1) * (s + 2),
		"CGS":    2 * (s + 1),
		"CholQR": 2,
		"SVQR":   2,
		"CAQR":   2,
	}
	for _, strat := range All() {
		ctx := gpu.NewContext(3, gpu.M2090())
		w := splitRows(v.Clone(), 3)
		ctx.ResetStats()
		if _, err := strat.Factor(ctx, w, "tsqr"); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		got := ctx.Stats().Phase("tsqr").Rounds
		if got != want[strat.Name()] {
			t.Fatalf("%s: %d transfers, want %d", strat.Name(), got, want[strat.Name()])
		}
	}
}

func TestCholQRFailsOnIllConditioned(t *testing.T) {
	// kappa ~ 1e9 squares to 1e18 > 1/eps: Cholesky must fail, CAQR and
	// MGS must survive with small orthogonality error.
	rng := rand.New(rand.NewSource(104))
	v := condTall(rng, 400, 10, 1e9)

	ctx := gpu.NewContext(2, gpu.M2090())
	w := splitRows(v.Clone(), 2)
	_, err := CholQR{}.Factor(ctx, w, "tsqr")
	if !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("CholQR err = %v, want rank deficiency", err)
	}

	for _, strat := range []TSQR{CAQR{}, MGS{}} {
		w := splitRows(v.Clone(), 2)
		orig := CloneWindow(w)
		r, err := strat.Factor(ctx, w, "tsqr")
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		e := Measure(w, orig, r)
		if e.Orthogonality > 1e-6 {
			t.Fatalf("%s: orthogonality %v on kappa=1e9", strat.Name(), e.Orthogonality)
		}
	}
}

func TestSVQRSurvivesWhereCholQRFails(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	v := condTall(rng, 300, 8, 1e9)
	ctx := gpu.NewContext(2, gpu.M2090())

	w := splitRows(v.Clone(), 2)
	if _, err := (CholQR{}).Factor(ctx, w, "tsqr"); err == nil {
		t.Skip("CholQR unexpectedly survived; conditioning too mild on this seed")
	}
	w = splitRows(v.Clone(), 2)
	orig := CloneWindow(w)
	r, err := SVQR{}.Factor(ctx, w, "tsqr")
	if err != nil {
		t.Fatalf("SVQR failed: %v", err)
	}
	e := Measure(w, orig, r)
	// SVQR error is O(eps kappa^2) — it survives, not that it is great.
	if math.IsNaN(e.Orthogonality) || e.Orthogonality > 10 {
		t.Fatalf("SVQR orthogonality %v", e.Orthogonality)
	}
	if e.Factorization > 1e-6 {
		t.Fatalf("SVQR factorization error %v", e.Factorization)
	}
}

func TestOrthogonalityErrorOrdering(t *testing.T) {
	// On a moderately ill-conditioned window (kappa ~ 1e5), Figure 13's
	// ordering must hold: CAQR <= MGS <= CholQR/SVQR in orthogonality
	// error, with the Gram-based methods visibly worse.
	rng := rand.New(rand.NewSource(106))
	v := condTall(rng, 500, 12, 1e5)
	errsBy := map[string]float64{}
	for _, strat := range All() {
		ctx := gpu.NewContext(2, gpu.M2090())
		w := splitRows(v.Clone(), 2)
		orig := CloneWindow(w)
		r, err := strat.Factor(ctx, w, "tsqr")
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		errsBy[strat.Name()] = Measure(w, orig, r).Orthogonality
	}
	if errsBy["CAQR"] > 1e-12 {
		t.Fatalf("CAQR orthogonality %v, want O(eps)", errsBy["CAQR"])
	}
	if errsBy["CholQR"] < 10*errsBy["MGS"] {
		t.Fatalf("CholQR (%v) should be clearly worse than MGS (%v) at kappa=1e5",
			errsBy["CholQR"], errsBy["MGS"])
	}
	if errsBy["MGS"] > 1e-8 {
		t.Fatalf("MGS orthogonality %v too large", errsBy["MGS"])
	}
}

func TestReorthImprovesCGS(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	v := condTall(rng, 400, 10, 1e6)

	ctx := gpu.NewContext(2, gpu.M2090())
	w1 := splitRows(v.Clone(), 2)
	o1 := CloneWindow(w1)
	r1, err := CGS{}.Factor(ctx, w1, "tsqr")
	if err != nil {
		t.Fatal(err)
	}
	e1 := Measure(w1, o1, r1)

	w2 := splitRows(v.Clone(), 2)
	o2 := CloneWindow(w2)
	r2, err := (Reorth{Inner: CGS{}}).Factor(ctx, w2, "tsqr")
	if err != nil {
		t.Fatal(err)
	}
	e2 := Measure(w2, o2, r2)
	if e2.Orthogonality > e1.Orthogonality/10 {
		t.Fatalf("reorth did not improve CGS: %v -> %v", e1.Orthogonality, e2.Orthogonality)
	}
	// The combined R must still factor the original window.
	if e2.Factorization > 1e-10 {
		t.Fatalf("2xCGS factorization error %v", e2.Factorization)
	}
}

func TestRankDeficientWindowErrors(t *testing.T) {
	// Duplicate columns: the Gram-Schmidt strategies detect the
	// deficiency through their relative breakdown checks. CholQR sits at
	// the numerical boundary (an exactly singular Gram matrix rounds to
	// a pivot of either sign), mirroring the paper's observation that
	// CholQR's failure mode on kappa ~ 1/eps windows is data-dependent:
	// it must either error or visibly lose orthogonality — never
	// silently claim an orthonormal basis.
	rng := rand.New(rand.NewSource(108))
	v := randTall(rng, 100, 4)
	copy(v.Col(3), v.Col(1)) // exact duplicate
	for _, strat := range []TSQR{MGS{}, CGS{}} {
		ctx := gpu.NewContext(2, gpu.M2090())
		w := splitRows(v.Clone(), 2)
		_, err := strat.Factor(ctx, w, "tsqr")
		if !errors.Is(err, ErrRankDeficient) {
			t.Fatalf("%s: err = %v, want ErrRankDeficient", strat.Name(), err)
		}
	}
	ctx := gpu.NewContext(2, gpu.M2090())
	w := splitRows(v.Clone(), 2)
	orig := CloneWindow(w)
	r, err := (CholQR{}).Factor(ctx, w, "tsqr")
	if err == nil {
		e := Measure(w, orig, r)
		if e.Orthogonality < 1e-4 {
			t.Fatalf("CholQR silently produced an 'orthonormal' basis from a singular window (err %v)", e.Orthogonality)
		}
	}
}

func TestZeroColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	v := randTall(rng, 80, 3)
	la.Zero(v.Col(1))
	for _, strat := range []TSQR{MGS{}, CGS{}, CholQR{}, SVQR{}} {
		ctx := gpu.NewContext(2, gpu.M2090())
		w := splitRows(v.Clone(), 2)
		if _, err := strat.Factor(ctx, w, "tsqr"); err == nil {
			t.Fatalf("%s: expected error on zero column", strat.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"MGS", "CGS", "CholQR", "SVQR", "CAQR"} {
		s, err := ByName(name)
		if err != nil || s.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, s, err)
		}
	}
	s, err := ByName("2xCholQR")
	if err != nil || s.Name() != "2xCholQR" {
		t.Fatalf("ByName 2x = %v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestPropertyTable(t *testing.T) {
	props := PropertyTable(1000, 9)
	if len(props) != 5 {
		t.Fatalf("got %d rows", len(props))
	}
	byName := map[string]Property{}
	for _, p := range props {
		byName[p.Name] = p
	}
	if byName["MGS"].CommCount != 110 { // (9+1)(9+2)
		t.Fatalf("MGS comm = %d", byName["MGS"].CommCount)
	}
	if byName["CGS"].CommCount != 20 {
		t.Fatalf("CGS comm = %d", byName["CGS"].CommCount)
	}
	if byName["CholQR"].CommCount != 2 || byName["CAQR"].CommCount != 2 {
		t.Fatal("BLAS-3 strategies must have 2 transfers")
	}
	if byName["CAQR"].Flops != 2*byName["CholQR"].Flops {
		t.Fatal("CAQR flops must double (explicit Q)")
	}
}

func TestMeasurePerfectFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	v := randTall(rng, 60, 3)
	f := la.HouseholderQR(v)
	q, r := f.FormQ(), f.R()
	e := Measure(splitRows(q, 2), splitRows(v, 2), r)
	if e.Orthogonality > 1e-13 || e.Factorization > 1e-13 {
		t.Fatalf("errors on exact factorization: %+v", e)
	}
}

// TestWindowMustMatchTheContext: a window split for another device count
// than the context's fails up front with both counts in the message, in
// every strategy and both BOrth variants — not with an index out of range
// from inside a device goroutine or a nil panel in a host sum.
func TestWindowMustMatchTheContext(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	v := randTall(rng, 60, 4)
	mustPanic := func(name string, panels, devices int, f func()) {
		t.Helper()
		want := fmt.Sprintf("ortho: window of %d panels on a context of %d devices", panels, devices)
		defer func() {
			if got := recover(); got != want {
				t.Errorf("%s, %d panels on %d devices: panic %v, want %q", name, panels, devices, got, want)
			}
		}()
		f()
	}
	for _, n := range [][2]int{{2, 3}, {3, 2}} {
		panels, devices := n[0], n[1]
		for _, strat := range append(All(), CGSUnfused{}, MixedCholQR{Refine: true}, Reorth{Inner: CholQR{}}) {
			mustPanic(strat.Name(), panels, devices, func() {
				strat.Factor(gpu.NewContext(devices, gpu.M2090()), splitRows(v.Clone(), panels), "tsqr")
			})
		}
		for _, b := range []BOrth{BOrthCGS{}, BOrthMGS{}} {
			mustPanic(b.Name(), panels, devices, func() {
				p := orthoPanel(rng, 60, 3, panels)
				b.Project(gpu.NewContext(devices, gpu.M2090()), p, splitRows(v.Clone(), panels), "borth")
			})
		}
	}
}
