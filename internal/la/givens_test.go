package la

import (
	"math"
	"math/rand"
	"testing"
)

func TestHessenbergLSMatchesQR(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, k := range []int{1, 3, 8, 20} {
		h := NewDense(k+1, k)
		for j := 0; j < k; j++ {
			for i := 0; i <= j+1; i++ {
				h.Set(i, j, rng.NormFloat64())
			}
		}
		c := randVec(rng, k+1)
		y, res := HessenbergLS(h, c)
		// Compare with dense QR least squares.
		want := QRLeastSquares(h, c)
		for i := range want {
			if !almostEq(y[i], want[i], 1e-9) {
				t.Fatalf("k=%d: y[%d] = %v, want %v", k, i, y[i], want[i])
			}
		}
		// Residual must match ||c - H y||.
		r := make([]float64, k+1)
		Gemv(-1, h, y, 0, r)
		Axpy(1, c, r)
		if !almostEq(res, Nrm2(r), 1e-9) {
			t.Fatalf("k=%d: residual %v, want %v", k, res, Nrm2(r))
		}
	}
}

func TestGivensQRIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := 15
	beta := 2.5
	h := NewDense(m+1, m)
	for j := 0; j < m; j++ {
		for i := 0; i <= j+1; i++ {
			h.Set(i, j, rng.NormFloat64())
		}
	}
	inc := NewGivensQR(m, beta)
	var lastRes float64
	for j := 0; j < m; j++ {
		col := make([]float64, j+2)
		for i := 0; i <= j+1; i++ {
			col[i] = h.At(i, j)
		}
		lastRes = inc.Append(col)
	}
	c := make([]float64, m+1)
	c[0] = beta
	yBatch, resBatch := HessenbergLS(h, c)
	if !almostEq(lastRes, resBatch, 1e-9) {
		t.Fatalf("incremental residual %v, batch %v", lastRes, resBatch)
	}
	y := inc.Solve()
	for i := range yBatch {
		if !almostEq(y[i], yBatch[i], 1e-9) {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], yBatch[i])
		}
	}
	if !almostEq(inc.ResidualNorm(), resBatch, 1e-9) {
		t.Fatal("ResidualNorm mismatch")
	}
}

func TestGivensQRResidualMonotone(t *testing.T) {
	// GMRES guarantee: the residual norm is non-increasing as columns are
	// appended. Verify on random Hessenberg data.
	rng := rand.New(rand.NewSource(32))
	m := 25
	inc := NewGivensQR(m, 1)
	prev := 1.0
	for j := 0; j < m; j++ {
		col := randVec(rng, j+2)
		res := inc.Append(col)
		if res > prev+1e-12 {
			t.Fatalf("residual increased at step %d: %v > %v", j, res, prev)
		}
		prev = res
	}
}

func TestGivensRZeroCases(t *testing.T) {
	cs, sn := givensR(0, 0)
	if cs != 1 || sn != 0 {
		t.Fatal("givensR(0,0) should be identity")
	}
	cs, sn = givensR(0, 5)
	if cs != 0 || sn != 1 {
		t.Fatal("givensR(0,b) should swap")
	}
	cs, sn = givensR(3, 4)
	if !almostEq(cs, 0.6, 1e-15) || !almostEq(sn, 0.8, 1e-15) {
		t.Fatalf("givensR(3,4) = %v,%v", cs, sn)
	}
	if r := cs*3 + sn*4; !almostEq(r, 5, 1e-15) {
		t.Fatalf("rotation r = %v", r)
	}
	if z := -sn*3 + cs*4; math.Abs(z) > 1e-15 {
		t.Fatalf("rotation failed to zero: %v", z)
	}
}

func TestUpperSolve(t *testing.T) {
	r := NewDense(3, 3)
	r.Set(0, 0, 2)
	r.Set(0, 1, 1)
	r.Set(0, 2, 3)
	r.Set(1, 1, 4)
	r.Set(1, 2, -1)
	r.Set(2, 2, 5)
	x := []float64{1, 2, 3}
	rhs := make([]float64, 3)
	Gemv(1, r, x, 0, rhs)
	UpperSolve(r, rhs)
	for i := range x {
		if !almostEq(rhs[i], x[i], 1e-12) {
			t.Fatalf("UpperSolve = %v", rhs)
		}
	}
}

func TestInvertUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 6
	r := NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			r.Set(i, j, rng.NormFloat64())
		}
		r.Set(j, j, 1+rng.Float64())
	}
	inv := InvertUpper(r)
	prod := NewDense(n, n)
	GemmNN(1, r, inv, 0, prod)
	if !prod.Equalish(Eye(n), 1e-10) {
		t.Fatal("R * inv(R) != I")
	}
}
