package la

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestDenseAtSetCol(t *testing.T) {
	m := NewDense(3, 2)
	m.Set(1, 0, 5)
	m.Set(2, 1, -3)
	if m.At(1, 0) != 5 || m.At(2, 1) != -3 {
		t.Fatal("At/Set roundtrip failed")
	}
	col := m.Col(1)
	if len(col) != 3 || col[2] != -3 {
		t.Fatalf("Col = %v", col)
	}
	col[0] = 9 // Col is a view
	if m.At(0, 1) != 9 {
		t.Fatal("Col must alias matrix storage")
	}
}

// newDenseStride allocates a rows x cols zero matrix with the given
// column stride (>= rows): the padded layout a view of a larger
// allocation has.
func newDenseStride(rows, cols, stride int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Stride: stride, Data: make([]float64, stride*cols)}
}

func TestDenseStridePadding(t *testing.T) {
	m := newDenseStride(3, 2, 5)
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	if m.At(2, 1) != 21 {
		t.Fatalf("strided At = %v", m.At(2, 1))
	}
	// Padding must stay zero and not leak into Col.
	if len(m.Col(0)) != 3 {
		t.Fatalf("Col length = %d with stride", len(m.Col(0)))
	}
}

func TestColView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 4, 5)
	v := m.ColView(1, 4)
	if v.Rows != 4 || v.Cols != 3 {
		t.Fatalf("ColView shape %dx%d", v.Rows, v.Cols)
	}
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			if v.At(i, j) != m.At(i, j+1) {
				t.Fatal("ColView content mismatch")
			}
		}
	}
	v.Set(0, 0, 99)
	if m.At(0, 1) != 99 {
		t.Fatal("ColView must alias")
	}
}

func TestRowView(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDense(rng, 6, 3)
	v := m.RowView(2, 5)
	if v.Rows != 3 || v.Cols != 3 {
		t.Fatalf("RowView shape %dx%d", v.Rows, v.Cols)
	}
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			if v.At(i, j) != m.At(i+2, j) {
				t.Fatal("RowView content mismatch")
			}
		}
	}
	v.Set(0, 1, -42)
	if m.At(2, 1) != -42 {
		t.Fatal("RowView must alias")
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randDense(rng, 4, 4)
	c := m.Clone()
	c.Set(0, 0, 1234)
	if m.At(0, 0) == 1234 {
		t.Fatal("Clone must not alias")
	}
	if !m.Equalish(m.Clone(), 0) {
		t.Fatal("Clone content mismatch")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDense(2, 3)
	k := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, k)
			k++
		}
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("Transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Fatal("Transpose content mismatch")
			}
		}
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatal("Eye wrong")
			}
		}
	}
}

func TestFrobNorm(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4)
	if got := m.FrobNorm(); !almostEq(got, 5, 1e-15) {
		t.Fatalf("FrobNorm = %v, want 5", got)
	}
	if got := NewDense(0, 0).FrobNorm(); got != 0 {
		t.Fatalf("FrobNorm empty = %v", got)
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(1, 0, -9)
	m.Set(0, 1, 4)
	if got := m.MaxAbs(); got != 9 {
		t.Fatalf("MaxAbs = %v", got)
	}
}

func TestEqualish(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	b.Set(1, 1, 1e-12)
	if !a.Equalish(b, 1e-10) {
		t.Fatal("Equalish should tolerate 1e-12")
	}
	if a.Equalish(b, 1e-14) {
		t.Fatal("Equalish should reject at tight tol")
	}
	if a.Equalish(NewDense(2, 3), 1) {
		t.Fatal("Equalish must reject shape mismatch")
	}
}

func TestZeroRespectsViews(t *testing.T) {
	m := NewDense(4, 4)
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			m.Set(i, j, 1)
		}
	}
	m.ColView(1, 3).Zero()
	for i := 0; i < 4; i++ {
		if m.At(i, 0) != 1 || m.At(i, 3) != 1 {
			t.Fatal("Zero leaked outside view")
		}
		if m.At(i, 1) != 0 || m.At(i, 2) != 0 {
			t.Fatal("Zero missed view content")
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := Eye(2)
	if s := small.String(); !strings.Contains(s, "1.0000e") {
		t.Fatalf("small String = %q", s)
	}
	big := NewDense(100, 100)
	if s := big.String(); !strings.Contains(s, "100x100") {
		t.Fatalf("large String = %q", s)
	}
}

func TestCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randDense(rng, 3, 3)
	dst := NewDense(3, 3)
	dst.CopyFrom(src)
	if !dst.Equalish(src, 0) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(-1, 2)
}

func TestFrobNormNoOverflow(t *testing.T) {
	m := NewDense(2, 1)
	m.Set(0, 0, math.MaxFloat64/4)
	m.Set(1, 0, math.MaxFloat64/4)
	got := m.FrobNorm()
	if math.IsInf(got, 0) {
		t.Fatal("FrobNorm overflowed")
	}
}
