package dist

import (
	"math/rand"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

func TestUniformLayout(t *testing.T) {
	l := Uniform(10, 3)
	if l.NumDevices() != 3 {
		t.Fatalf("devices = %d", l.NumDevices())
	}
	if l.OwnCount(0) != 4 || l.OwnCount(1) != 3 || l.OwnCount(2) != 3 {
		t.Fatalf("counts %d %d %d", l.OwnCount(0), l.OwnCount(1), l.OwnCount(2))
	}
	if l.OwnStart(1) != 4 || l.OwnStart(2) != 7 {
		t.Fatal("starts wrong")
	}
}

func TestLayoutOwner(t *testing.T) {
	l := NewLayout(10, []int{0, 4, 7, 10})
	cases := map[int]int{0: 0, 3: 0, 4: 1, 6: 1, 7: 2, 9: 2}
	for row, want := range cases {
		if got := l.Owner(row); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", row, got, want)
		}
	}
}

func TestLayoutOwnerExhaustive(t *testing.T) {
	for _, ng := range []int{1, 2, 3, 5} {
		l := Uniform(37, ng)
		for i := 0; i < 37; i++ {
			d := l.Owner(i)
			if i < l.OwnStart(d) || i >= l.OwnStart(d)+l.OwnCount(d) {
				t.Fatalf("ng=%d: Owner(%d)=%d but range [%d,%d)", ng, i, d,
					l.OwnStart(d), l.OwnStart(d)+l.OwnCount(d))
			}
		}
	}
}

func TestNewLayoutValidates(t *testing.T) {
	for _, bad := range [][]int{{1, 5}, {0, 3}, {0, 6, 5, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v should panic", bad)
				}
			}()
			NewLayout(10, bad)
		}()
	}
}

func TestVectorsScatterGather(t *testing.T) {
	ctx := gpu.NewContext(3, gpu.M2090())
	l := Uniform(11, 3)
	v := NewVectors(ctx, l, 2)
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 11)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	v.SetColFromHost(1, x)
	got := v.GatherCol(1)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
	// Column 0 untouched.
	for _, val := range v.GatherCol(0) {
		if val != 0 {
			t.Fatal("column 0 contaminated")
		}
	}
}

func TestVectorsWindow(t *testing.T) {
	ctx := gpu.NewContext(2, gpu.M2090())
	l := Uniform(6, 2)
	v := NewVectors(ctx, l, 5)
	w := v.Window(1, 4)
	if len(w) != 2 || w[0].Cols != 3 || w[0].Rows != 3 {
		t.Fatalf("window shape %dx%d", w[0].Rows, w[0].Cols)
	}
	// Window must alias the underlying storage.
	w[0].Set(0, 0, 42)
	if v.Local[0].At(0, 1) != 42 {
		t.Fatal("window does not alias")
	}
}

func TestVectorsDeviceMismatchPanics(t *testing.T) {
	ctx := gpu.NewContext(2, gpu.M2090())
	l := Uniform(4, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVectors(ctx, l, 1)
}

func TestDistributedOps(t *testing.T) {
	ctx := gpu.NewContext(3, gpu.M2090())
	l := Uniform(20, 3)
	v := NewVectors(ctx, l, 4)
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	v.SetColFromHost(0, x)
	v.SetColFromHost(1, y)

	if got, want := v.DotCols(0, 1, "test"), la.Dot(x, y); !approxEq(got, want, 1e-12) {
		t.Fatalf("DotCols = %v, want %v", got, want)
	}
	if got, want := v.NormCol(0, "test"), la.Nrm2(x); !approxEq(got, want, 1e-12) {
		t.Fatalf("NormCol = %v, want %v", got, want)
	}

	v.AxpyCol(2.5, 0, 1, "test")
	got := v.GatherCol(1)
	for i := range got {
		if !approxEq(got[i], y[i]+2.5*x[i], 1e-12) {
			t.Fatal("AxpyCol wrong")
		}
	}

	v.ScaleCol(0.5, 0, "test")
	got = v.GatherCol(0)
	for i := range got {
		if !approxEq(got[i], 0.5*x[i], 1e-12) {
			t.Fatal("ScaleCol wrong")
		}
	}
}

func TestUpdateWithBasis(t *testing.T) {
	ctx := gpu.NewContext(2, gpu.M2090())
	l := Uniform(10, 2)
	v := NewVectors(ctx, l, 5)
	rng := rand.New(rand.NewSource(3))
	cols := make([][]float64, 3)
	for j := 0; j < 3; j++ {
		cols[j] = make([]float64, 10)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
		v.SetColFromHost(j+1, cols[j])
	}
	y := []float64{0.5, -1, 2}
	v.UpdateWithBasis(0, v, 1, y, "test")
	got := v.GatherCol(0)
	for i := range got {
		want := 0.5*cols[0][i] - cols[1][i] + 2*cols[2][i]
		if !approxEq(got[i], want, 1e-12) {
			t.Fatalf("UpdateWithBasis at %d: %v vs %v", i, got[i], want)
		}
	}
}

func TestOpsAccounting(t *testing.T) {
	ctx := gpu.NewContext(2, gpu.M2090())
	l := Uniform(10, 2)
	v := NewVectors(ctx, l, 2)
	ctx.ResetStats()
	v.DotCols(0, 1, "dot")
	p := ctx.Stats().Phase("dot")
	if p.Rounds != 1 || p.Messages != 2 || p.BytesD2H != 16 {
		t.Fatalf("dot stats %+v", p)
	}
	ctx.ResetStats()
	v.AxpyCol(1, 0, 1, "axpy")
	if ctx.Stats().Phase("axpy").Rounds != 0 {
		t.Fatal("axpy must be communication-free")
	}
	ctx.ResetStats()
	v.ScaleCol(2, 0, "scale")
	p = ctx.Stats().Phase("scale")
	if p.Rounds != 1 || p.BytesH2D != 16 {
		t.Fatalf("scale stats %+v", p)
	}
}

func approxEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if a > 0 {
		m += a
	} else {
		m -= a
	}
	if b > 0 {
		m += b
	} else {
		m -= b
	}
	return d <= tol*m
}
