package dist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/sparse"
)

// hostPowers computes the reference monomial basis columns on the host.
func hostPowers(a *sparse.CSR, v0 []float64, s int) [][]float64 {
	n := a.Rows
	out := make([][]float64, s+1)
	out[0] = append([]float64(nil), v0...)
	for k := 1; k <= s; k++ {
		out[k] = make([]float64, n)
		mulVec(a, out[k], out[k-1])
	}
	return out
}

func TestMPKMatchesRepeatedSpMVMonomial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, cfg := range []struct{ n, deg, ng, s int }{
		{30, 2, 1, 3},
		{60, 3, 2, 4},
		{100, 4, 3, 5},
		{50, 2, 3, 1},
	} {
		a := randSquare(rng, cfg.n, cfg.deg)
		ctx := gpu.NewContext(cfg.ng, gpu.M2090())
		m := Distribute(ctx, a, Uniform(cfg.n, cfg.ng), cfg.s)
		mpk := NewMPK(m)
		v := NewVectors(ctx, Uniform(cfg.n, cfg.ng), cfg.s+1)
		v0 := make([]float64, cfg.n)
		for i := range v0 {
			v0[i] = rng.NormFloat64()
		}
		v.SetColFromHost(0, v0)
		bhat := mpk.Generate(v, 0, cfg.s, nil, "mpk")
		want := hostPowers(a, v0, cfg.s)
		for k := 0; k <= cfg.s; k++ {
			got := v.GatherCol(k)
			for i := range got {
				if !approxEq(got[i], want[k][i], 1e-11) {
					t.Fatalf("cfg %+v: column %d row %d: %v vs %v", cfg, k, i, got[i], want[k][i])
				}
			}
		}
		// Monomial change of basis: down-shift.
		for c := 0; c < cfg.s; c++ {
			for r := 0; r <= cfg.s; r++ {
				want := 0.0
				if r == c+1 {
					want = 1
				}
				if bhat.At(r, c) != want {
					t.Fatalf("bhat(%d,%d) = %v", r, c, bhat.At(r, c))
				}
			}
		}
	}
}

func TestMPKQuickProperty(t *testing.T) {
	// Property: for random matrices, sizes, device counts, and s, MPK
	// equals s repeated host SpMVs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		ng := 1 + rng.Intn(3)
		s := 1 + rng.Intn(5)
		a := randSquare(rng, n, 1+rng.Intn(4))
		ctx := gpu.NewContext(ng, gpu.M2090())
		m := Distribute(ctx, a, Uniform(n, ng), s)
		mpk := NewMPK(m)
		v := NewVectors(ctx, Uniform(n, ng), s+1)
		v0 := make([]float64, n)
		for i := range v0 {
			v0[i] = rng.NormFloat64()
		}
		v.SetColFromHost(0, v0)
		mpk.Generate(v, 0, s, nil, "mpk")
		want := hostPowers(a, v0, s)
		for k := 1; k <= s; k++ {
			got := v.GatherCol(k)
			for i := range got {
				if !approxEq(got[i], want[k][i], 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMPKPartialWindow(t *testing.T) {
	// Generating fewer steps than the matrix was built for (the tail
	// window of CA-GMRES when s does not divide m).
	rng := rand.New(rand.NewSource(11))
	a := randSquare(rng, 50, 3)
	ctx := gpu.NewContext(2, gpu.M2090())
	m := Distribute(ctx, a, Uniform(50, 2), 6)
	mpk := NewMPK(m)
	v := NewVectors(ctx, Uniform(50, 2), 7)
	v0 := make([]float64, 50)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	v.SetColFromHost(0, v0)
	mpk.Generate(v, 0, 3, nil, "mpk") // only 3 of 6
	want := hostPowers(a, v0, 3)
	for k := 1; k <= 3; k++ {
		got := v.GatherCol(k)
		for i := range got {
			if !approxEq(got[i], want[k][i], 1e-11) {
				t.Fatalf("partial window col %d row %d", k, i)
			}
		}
	}
}

func TestMPKNewtonRealShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, s := 40, 4
	a := randSquare(rng, n, 3)
	ctx := gpu.NewContext(2, gpu.M2090())
	m := Distribute(ctx, a, Uniform(n, 2), s)
	mpk := NewMPK(m)
	v := NewVectors(ctx, Uniform(n, 2), s+1)
	v0 := make([]float64, n)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	v.SetColFromHost(0, v0)
	shifts := []complex128{2, -1, 0.5, 3}
	bhat := mpk.Generate(v, 0, s, shifts, "mpk")
	// Reference: v_{k+1} = (A - theta_k I) v_k on the host.
	cur := append([]float64(nil), v0...)
	for k := 0; k < s; k++ {
		next := make([]float64, n)
		mulVec(a, next, cur)
		la.Axpy(-real(shifts[k]), cur, next)
		got := v.GatherCol(k + 1)
		for i := range got {
			if !approxEq(got[i], next[i], 1e-10) {
				t.Fatalf("newton col %d row %d: %v vs %v", k+1, i, got[i], next[i])
			}
		}
		cur = next
	}
	// Change of basis: theta on diagonal, 1 on subdiagonal.
	for c := 0; c < s; c++ {
		if bhat.At(c, c) != real(shifts[c]) || bhat.At(c+1, c) != 1 {
			t.Fatalf("bhat col %d wrong", c)
		}
	}
}

func TestMPKNewtonComplexPair(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, s := 30, 4
	a := randSquare(rng, n, 2)
	ctx := gpu.NewContext(2, gpu.M2090())
	m := Distribute(ctx, a, Uniform(n, 2), s)
	mpk := NewMPK(m)
	v := NewVectors(ctx, Uniform(n, 2), s+1)
	v0 := make([]float64, n)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	v.SetColFromHost(0, v0)
	// shifts: real 1.5, pair (2 ± 3i), real -0.5
	shifts := []complex128{1.5, complex(2, 3), complex(2, -3), -0.5}
	bhat := mpk.Generate(v, 0, s, shifts, "mpk")

	// Host reference with the same real-arithmetic recurrence.
	vs := make([][]float64, s+1)
	vs[0] = v0
	matvec := func(x []float64) []float64 {
		y := make([]float64, n)
		mulVec(a, y, x)
		return y
	}
	// k=0: real shift 1.5
	vs[1] = matvec(vs[0])
	la.Axpy(-1.5, vs[0], vs[1])
	// k=1: first of pair: (A - 2I) v1
	vs[2] = matvec(vs[1])
	la.Axpy(-2, vs[1], vs[2])
	// k=2: second of pair: (A - 2I) v2 + 9 v1
	vs[3] = matvec(vs[2])
	la.Axpy(-2, vs[2], vs[3])
	la.Axpy(9, vs[1], vs[3])
	// k=3: real shift -0.5
	vs[4] = matvec(vs[3])
	la.Axpy(0.5, vs[3], vs[4])

	for k := 1; k <= s; k++ {
		got := v.GatherCol(k)
		for i := range got {
			if !approxEq(got[i], vs[k][i], 1e-9) {
				t.Fatalf("complex-pair col %d row %d: %v vs %v", k, i, got[i], vs[k][i])
			}
		}
	}

	// Verify A*V_{1:s} == V_{1:s+1}*Bhat column by column on the host.
	for c := 0; c < s; c++ {
		av := matvec(vs[c])
		rec := make([]float64, n)
		for r := 0; r <= s; r++ {
			if bhat.At(r, c) != 0 {
				la.Axpy(bhat.At(r, c), vs[r], rec)
			}
		}
		for i := range av {
			if !approxEq(av[i], rec[i], 1e-9) {
				t.Fatalf("change-of-basis identity broken at col %d row %d", c, i)
			}
		}
	}
}

func TestMPKShiftValidation(t *testing.T) {
	a := pathN(10)
	ctx := gpu.NewContext(1, gpu.M2090())
	m := Distribute(ctx, a, Uniform(10, 1), 2)
	mpk := NewMPK(m)
	v := NewVectors(ctx, Uniform(10, 1), 3)
	cases := [][]complex128{
		{complex(1, 2), complex(5, 0)},  // pair not followed by conjugate
		{complex(1, -2), complex(1, 2)}, // dangling conjugate first
	}
	for i, shifts := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			mpk.Generate(v, 0, 2, shifts, "mpk")
		}()
	}
}

func TestMPKCommunicationAccounting(t *testing.T) {
	// One MPK call must produce exactly one reduce and one broadcast
	// round regardless of s — the latency saving over s SpMVs.
	a := pathN(30)
	ctx := gpu.NewContext(3, gpu.M2090())
	s := 5
	m := Distribute(ctx, a, Uniform(30, 3), s)
	mpk := NewMPK(m)
	v := NewVectors(ctx, Uniform(30, 3), s+1)
	v0 := make([]float64, 30)
	for i := range v0 {
		v0[i] = 1
	}
	v.SetColFromHost(0, v0)
	ctx.ResetStats()
	mpk.Generate(v, 0, s, nil, "mpk")
	p := ctx.Stats().Phase("mpk")
	if p.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", p.Rounds)
	}
	// Volume: gather = sum SendIdx, scatter = sum halos.
	an := Analyze(m)
	if p.BytesD2H != an.GatherVolume*8 {
		t.Fatalf("gather bytes %d, want %d", p.BytesD2H, an.GatherVolume*8)
	}
	if p.BytesH2D != an.ScatterVolume*8 {
		t.Fatalf("scatter bytes %d, want %d", p.BytesH2D, an.ScatterVolume*8)
	}
	if p.Kernels != s {
		t.Fatalf("kernels = %d, want %d", p.Kernels, s)
	}
}

func TestSpMVMatchesHost(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, cfg := range []struct{ ng, s int }{{1, 1}, {3, 1}, {2, 4}} {
		n := 70
		a := randSquare(rng, n, 4)
		ctx := gpu.NewContext(cfg.ng, gpu.M2090())
		m := Distribute(ctx, a, Uniform(n, cfg.ng), cfg.s)
		mpk := NewMPK(m)
		v := NewVectors(ctx, Uniform(n, cfg.ng), 2)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		v.SetColFromHost(0, x)
		mpk.SpMV(v, 0, v, 1, "spmv")
		want := make([]float64, n)
		mulVec(a, want, x)
		got := v.GatherCol(1)
		for i := range got {
			if !approxEq(got[i], want[i], 1e-11) {
				t.Fatalf("cfg %+v: SpMV mismatch at %d", cfg, i)
			}
		}
	}
}

func TestSpMVRoundsPerCall(t *testing.T) {
	a := pathN(20)
	ctx := gpu.NewContext(2, gpu.M2090())
	m := Distribute(ctx, a, Uniform(20, 2), 1)
	mpk := NewMPK(m)
	v := NewVectors(ctx, Uniform(20, 2), 3)
	v.SetColFromHost(0, make([]float64, 20))
	ctx.ResetStats()
	mpk.SpMV(v, 0, v, 1, "spmv")
	mpk.SpMV(v, 1, v, 2, "spmv")
	p := ctx.Stats().Phase("spmv")
	if p.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4 (2 per SpMV)", p.Rounds)
	}
}

func TestMPKLatencyAdvantage(t *testing.T) {
	// The modeled communication time of one MPK(s) call must be lower
	// than s SpMV calls for a banded matrix — the core claim of Figure 8.
	n, s, ng := 3000, 8, 3
	a := pathN(n)
	ctx := gpu.NewContext(ng, gpu.M2090())
	mMPK := Distribute(ctx, a, Uniform(n, ng), s)
	mSp := Distribute(ctx, a, Uniform(n, ng), 1)

	v := NewVectors(ctx, Uniform(n, ng), s+1)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	v.SetColFromHost(0, x)

	ctx.ResetStats()
	NewMPK(mMPK).Generate(v, 0, s, nil, "mpk")
	mpkComm := ctx.Stats().Phase("mpk").CommTime

	ctx.ResetStats()
	sp := NewMPK(mSp)
	for k := 0; k < s; k++ {
		sp.SpMV(v, k, v, k+1, "spmv")
	}
	spComm := ctx.Stats().Phase("spmv").CommTime

	if mpkComm >= spComm {
		t.Fatalf("MPK comm %v not better than SpMV comm %v", mpkComm, spComm)
	}
}

// TestMPKSELLFormatMatchesELL: the powers kernel over the chunked device
// format returns, bit for bit, what the paper's ELLPACK sweep returns on
// the same extended matrices — the row sums do not depend on the format.
func TestMPKSELLFormatMatchesELL(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n, ng, s := 90, 3, 4
	a := randSquare(rng, n, 5)
	v0 := make([]float64, n)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	ctx := gpu.NewContext(ng, gpu.M2090())
	m := Distribute(ctx, a, Uniform(n, ng), s)
	v := NewVectors(ctx, Uniform(n, ng), s+1)
	v.SetColFromHost(0, v0)
	NewMPK(m).Generate(v, 0, s, nil, "mpk")

	for d, dm := range m.Dev {
		ell := sparse.ToELL(dm.Ext.ToCSR())
		// z is the extended vector; a step refreshes the rows the matrix
		// stores. Rows past the step's valid prefix hold garbage, which the
		// owned rows of later steps never read.
		z := make([]float64, ell.Cols)
		copy(z, v0[m.Layout.OwnStart(d):][:dm.NOwn])
		for h, g := range dm.Halo {
			z[dm.NOwn+h] = v0[g]
		}
		y := make([]float64, ell.Rows)
		for k := 1; k <= s; k++ {
			ell.MulVec(y, z)
			copy(z, y)
			if got := v.Local[d].Col(k); !slices.Equal(got, y[:dm.NOwn]) {
				t.Fatalf("dev %d col %d: SELL MPK differs from the ELLPACK sweep", d, k)
			}
		}
	}
}

func TestSpMVSELLFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 70
	a := randSquare(rng, n, 4)
	ctx := gpu.NewContext(2, gpu.M2090())
	m := Distribute(ctx, a, Uniform(n, 2), 1)
	mpk := NewMPK(m)
	v := NewVectors(ctx, Uniform(n, 2), 2)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	v.SetColFromHost(0, x)
	mpk.SpMV(v, 0, v, 1, "spmv")
	want := make([]float64, n)
	mulVec(a, want, x)
	got := v.GatherCol(1)
	for i := range got {
		if !approxEq(got[i], want[i], 1e-12) {
			t.Fatalf("SELL SpMV mismatch at %d", i)
		}
	}
}
