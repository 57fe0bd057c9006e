package la

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// spdMatrix builds a random symmetric positive-definite matrix A'A + d*I.
func spdMatrix(rng *rand.Rand, n int, shift float64) *Dense {
	a := randDense(rng, n+3, n)
	c := NewDense(n, n)
	Syrk(a, c)
	for i := 0; i < n; i++ {
		c.Set(i, i, c.At(i, i)+shift)
	}
	return c
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 5, 12, 31} {
		b := spdMatrix(rng, n, 0.5)
		r, err := Cholesky(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// R'R must reproduce B.
		rt := r.Transpose()
		got := NewDense(n, n)
		GemmNN(1, rt, r, 0, got)
		if !got.Equalish(b, 1e-10*b.MaxAbs()) {
			t.Fatalf("n=%d: R'R != B", n)
		}
		// R upper triangular with positive diagonal.
		for j := 0; j < n; j++ {
			if r.At(j, j) <= 0 {
				t.Fatal("non-positive diagonal")
			}
			for i := j + 1; i < n; i++ {
				if r.At(i, j) != 0 {
					t.Fatal("R not upper triangular")
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	b := NewDense(2, 2)
	b.Set(0, 0, 1)
	b.Set(1, 1, -1)
	if _, err := Cholesky(b); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	// Rank-deficient Gram matrix of duplicated columns.
	g := NewDense(2, 2)
	g.Set(0, 0, 1)
	g.Set(0, 1, 1)
	g.Set(1, 0, 1)
	g.Set(1, 1, 1)
	// Exactly singular: pivot 2 becomes 0.
	if _, err := Cholesky(g); err == nil {
		t.Fatal("expected failure on singular Gram matrix")
	}
}

func TestHouseholderQRProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, shape := range [][2]int{{1, 1}, {5, 5}, {20, 6}, {100, 30}, {64, 1}} {
		m, n := shape[0], shape[1]
		a := randDense(rng, m, n)
		f := HouseholderQR(a)
		q := f.FormQ()
		r := f.R()
		// Q'Q = I
		qtq := NewDense(n, n)
		GemmTN(1, q, q, 0, qtq)
		if !qtq.Equalish(Eye(n), 1e-12) {
			t.Fatalf("%v: Q not orthonormal", shape)
		}
		// QR = A
		qr := NewDense(m, n)
		GemmNN(1, q, r, 0, qr)
		if !qr.Equalish(a, 1e-11*(1+a.MaxAbs())) {
			t.Fatalf("%v: QR != A", shape)
		}
		// R upper triangular
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				if r.At(i, j) != 0 {
					t.Fatalf("%v: R not triangular", shape)
				}
			}
		}
	}
}

func TestQROrthonormalQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 10 + r.Intn(60)
		n := 1 + r.Intn(10)
		a := randDense(r, m, n)
		q := HouseholderQR(a).FormQ()
		qtq := NewDense(n, n)
		GemmTN(1, q, q, 0, qtq)
		return qtq.Equalish(Eye(n), 1e-12)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestApplyQTMatchesFormQ(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randDense(rng, 30, 8)
	f := HouseholderQR(a)
	x := randVec(rng, 30)
	x2 := make([]float64, 30)
	copy(x2, x)
	f.ApplyQT(x)
	q := f.FormQ()
	want := make([]float64, 8)
	GemvT(1, q, x2, 0, want)
	for j := 0; j < 8; j++ {
		if !almostEq(x[j], want[j], 1e-11) {
			t.Fatalf("ApplyQT[%d] = %v, want %v", j, x[j], want[j])
		}
	}
}

func TestQRLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randDense(rng, 40, 6)
	xTrue := randVec(rng, 6)
	b := make([]float64, 40)
	Gemv(1, a, xTrue, 0, b)
	x := QRLeastSquares(a, b)
	for i := range xTrue {
		if !almostEq(x[i], xTrue[i], 1e-10) {
			t.Fatalf("LS x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestQRRankDeficientZeroColumn(t *testing.T) {
	a := NewDense(5, 2)
	for i := 0; i < 5; i++ {
		a.Set(i, 0, float64(i+1))
	}
	// Second column identically zero: tau must be 0, no NaNs.
	f := HouseholderQR(a)
	q := f.FormQ()
	for j := 0; j < 2; j++ {
		for _, v := range q.Col(j) {
			if math.IsNaN(v) {
				t.Fatal("NaN in Q for rank-deficient input")
			}
		}
	}
}

func TestFixRSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randDense(rng, 20, 5)
	f := HouseholderQR(a)
	q, r := f.FormQ(), f.R()
	FixRSigns(q, r)
	for i := 0; i < 5; i++ {
		if r.At(i, i) < 0 {
			t.Fatal("negative diagonal after FixRSigns")
		}
	}
	// QR must still equal A.
	qr := NewDense(20, 5)
	GemmNN(1, q, r, 0, qr)
	if !qr.Equalish(a, 1e-11) {
		t.Fatal("FixRSigns broke the factorization")
	}
}

func TestJacobiEig(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	n := 8
	b := spdMatrix(rng, n, 0.1)
	w, u := JacobiEig(b)
	// Eigenvalues descending.
	for i := 1; i < n; i++ {
		if w[i] > w[i-1]+1e-12 {
			t.Fatal("eigenvalues not sorted descending")
		}
	}
	// U orthonormal.
	utu := NewDense(n, n)
	GemmTN(1, u, u, 0, utu)
	if !utu.Equalish(Eye(n), 1e-10) {
		t.Fatal("U not orthonormal")
	}
	// B u_i = w_i u_i
	for i := 0; i < n; i++ {
		bu := make([]float64, n)
		Gemv(1, b, u.Col(i), 0, bu)
		for k := 0; k < n; k++ {
			if !almostEq(bu[k], w[i]*u.At(k, i), 1e-8*(1+math.Abs(w[0]))) {
				t.Fatalf("eigenpair %d violated", i)
			}
		}
	}
}

func TestJacobiEigDiagonal(t *testing.T) {
	d := NewDense(3, 3)
	d.Set(0, 0, 3)
	d.Set(1, 1, 1)
	d.Set(2, 2, 2)
	w, _ := JacobiEig(d)
	want := []float64{3, 2, 1}
	for i := range want {
		if !almostEq(w[i], want[i], 1e-14) {
			t.Fatalf("w = %v", w)
		}
	}
}

func TestSymCond2(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(0, 0, 100)
	d.Set(1, 1, 4)
	if got := SymCond2(d); !almostEq(got, 25, 1e-12) {
		t.Fatalf("SymCond2 = %v, want 25", got)
	}
	s := NewDense(2, 2)
	s.Set(0, 0, 1) // second eigenvalue 0
	if got := SymCond2(s); !math.IsInf(got, 1) {
		t.Fatalf("SymCond2 singular = %v, want +Inf", got)
	}
}

func TestGramCond2(t *testing.T) {
	// Orthonormal columns: condition number 1.
	rng := rand.New(rand.NewSource(28))
	q := HouseholderQR(randDense(rng, 50, 5)).FormQ()
	if got := GramCond2(q); !almostEq(got, 1, 1e-6) {
		t.Fatalf("GramCond2(Q) = %v, want 1", got)
	}
}

func TestHessenbergEigenvaluesKnown(t *testing.T) {
	// Companion-style Hessenberg of polynomial (x-1)(x-2)(x-3).
	h := NewDense(3, 3)
	// Use an upper Hessenberg with known spectrum: triangular case.
	h.Set(0, 0, 1)
	h.Set(1, 1, 2)
	h.Set(2, 2, 3)
	h.Set(0, 1, 5)
	h.Set(1, 2, -4)
	eig := HessenbergEigenvalues(h)
	re := make([]float64, len(eig))
	for i, z := range eig {
		if math.Abs(imag(z)) > 1e-10 {
			t.Fatalf("unexpected complex eigenvalue %v", z)
		}
		re[i] = real(z)
	}
	sort.Float64s(re)
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEq(re[i], want[i], 1e-10) {
			t.Fatalf("eigs = %v", re)
		}
	}
}

func TestHessenbergEigenvaluesComplexPair(t *testing.T) {
	// [[0 -1],[1 0]] has eigenvalues ±i.
	h := NewDense(2, 2)
	h.Set(0, 1, -1)
	h.Set(1, 0, 1)
	eig := HessenbergEigenvalues(h)
	if len(eig) != 2 {
		t.Fatalf("got %d eigenvalues", len(eig))
	}
	for _, z := range eig {
		if !almostEq(cmplx.Abs(z), 1, 1e-10) || !almostEq(math.Abs(imag(z)), 1, 1e-10) {
			t.Fatalf("eig = %v, want ±i", eig)
		}
	}
}

func TestHessenbergEigenvaluesRandomTrace(t *testing.T) {
	// Eigenvalue sum must equal the trace; product magnitudes must match
	// the determinant for a random Hessenberg matrix.
	rng := rand.New(rand.NewSource(29))
	n := 12
	h := NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j+1 && i < n; i++ {
			h.Set(i, j, rng.NormFloat64())
		}
	}
	eig := HessenbergEigenvalues(h)
	if len(eig) != n {
		t.Fatalf("got %d eigenvalues, want %d", len(eig), n)
	}
	var sum complex128
	for _, z := range eig {
		sum += z
	}
	var tr float64
	for i := 0; i < n; i++ {
		tr += h.At(i, i)
	}
	if !almostEq(real(sum), tr, 1e-8) || math.Abs(imag(sum)) > 1e-8 {
		t.Fatalf("sum(eig) = %v, trace = %v", sum, tr)
	}
}

func TestHessenbergEigenvaluesEmpty(t *testing.T) {
	if got := HessenbergEigenvalues(NewDense(0, 0)); len(got) != 0 {
		t.Fatal("empty matrix should have no eigenvalues")
	}
	one := NewDense(1, 1)
	one.Set(0, 0, 7)
	eig := HessenbergEigenvalues(one)
	if len(eig) != 1 || !almostEq(real(eig[0]), 7, 1e-15) {
		t.Fatalf("1x1 eig = %v", eig)
	}
}
