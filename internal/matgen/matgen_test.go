package matgen

import (
	"math"
	"testing"

	"cagmres/internal/graph"
	"cagmres/internal/la"
	"cagmres/internal/sparse"
)

const testScale = 0.002

// nnzPerRow is the average number of nonzeros per row of m.
func nnzPerRow(m *Matrix) float64 { return float64(m.A.NNZ()) / float64(m.A.Rows) }

func TestCantShape(t *testing.T) {
	m := Cant(testScale)
	if m.Name != "cant" {
		t.Fatalf("name %q", m.Name)
	}
	if m.A.Rows != m.A.Cols || m.A.Rows%3 != 0 {
		t.Fatalf("shape %dx%d", m.A.Rows, m.A.Cols)
	}
	// Target density ~64 nnz/row; small grids have strong boundary
	// effects, so accept a broad band.
	if d := nnzPerRow(m); d < 30 || d > 70 {
		t.Fatalf("cant nnz/row = %v", d)
	}
	assertSymmetricStructure(t, m.A)
	assertDiagDominant(t, m.A, 0.99)
}

func TestG3CircuitShape(t *testing.T) {
	m := G3Circuit(testScale)
	if d := nnzPerRow(m); d < 3.5 || d > 6.5 {
		t.Fatalf("G3 nnz/row = %v", d)
	}
	assertSymmetricStructure(t, m.A)
	// SPD-like: all diagonal positive.
	for i := 0; i < m.A.Rows; i++ {
		if m.A.At(i, i) <= 0 {
			t.Fatalf("non-positive diagonal at %d", i)
		}
	}
}

func TestDielFilterShape(t *testing.T) {
	m := DielFilter(testScale)
	if d := nnzPerRow(m); d < 20 || d > 50 {
		t.Fatalf("diel nnz/row = %v", d)
	}
	if m.A.Rows%2 != 0 {
		t.Fatalf("rows %d not even (2 dof)", m.A.Rows)
	}
}

func TestNLPKKTShape(t *testing.T) {
	m := NLPKKT(testScale)
	if d := nnzPerRow(m); d < 8 || d > 35 {
		t.Fatalf("kkt nnz/row = %v", d)
	}
	// Indefinite: negative entries on the dual diagonal block.
	n := m.A.Rows
	foundNeg := false
	for i := n - 1; i >= n-10 && i >= 0; i-- {
		if m.A.At(i, i) < 0 {
			foundNeg = true
			break
		}
	}
	if !foundNeg {
		t.Fatal("KKT (2,2) block should have negative diagonal")
	}
	assertSymmetricStructure(t, m.A)
}

func TestCantIsBandedG3IsNot(t *testing.T) {
	// The structural contrast that drives Figure 6: cant's natural
	// ordering is banded (bandwidth << n), G3's long-range connections
	// make its natural bandwidth comparable to n.
	// Use a larger cant so the beam is long relative to its cross
	// section (tiny grids are all boundary).
	cant := Cant(10 * testScale)
	g3 := G3Circuit(testScale)
	bwCant := graph.Bandwidth(graph.FromMatrix(cant.A))
	bwG3 := graph.Bandwidth(graph.FromMatrix(g3.A))
	if float64(bwCant) > 0.25*float64(cant.A.Rows) {
		t.Fatalf("cant bandwidth %d of n=%d not banded", bwCant, cant.A.Rows)
	}
	if float64(bwG3) < 0.5*float64(g3.A.Rows) {
		t.Fatalf("G3 bandwidth %d of n=%d unexpectedly banded", bwG3, g3.A.Rows)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"cant", "G3_circuit", "dielFilterV2real", "nlpkkt120"} {
		m, err := ByName(name, testScale)
		if err != nil || m.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ByName("bogus", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestPaperSet(t *testing.T) {
	set := PaperSet(testScale)
	if len(set) != 4 {
		t.Fatalf("len = %d", len(set))
	}
	want := []string{"cant", "G3_circuit", "dielFilterV2real", "nlpkkt120"}
	for i, m := range set {
		if m.Name != want[i] {
			t.Fatalf("set[%d] = %q", i, m.Name)
		}
	}
}

func TestLaplace2D(t *testing.T) {
	a := Laplace2D(4, 3, 0.5)
	if a.Rows != 12 {
		t.Fatalf("rows %d", a.Rows)
	}
	if a.At(0, 0) != 4 {
		t.Fatal("diagonal wrong")
	}
	// Convection: asymmetric east/west couplings.
	if a.At(1, 0) == a.At(1, 2) {
		t.Fatal("convection should break symmetry")
	}
}

func TestLaplace3D(t *testing.T) {
	a := Laplace3D(3, 3, 3, 0)
	if a.Rows != 27 {
		t.Fatalf("rows %d", a.Rows)
	}
	// Interior node has 7 entries.
	center := (1*3+1)*3 + 1
	cols, _ := a.Row(center)
	if len(cols) != 7 {
		t.Fatalf("interior row has %d entries", len(cols))
	}
	assertSymmetricStructure(t, a)
}

func TestDiagDominant(t *testing.T) {
	a := DiagDominant(100, 5, 7)
	assertDiagDominant(t, a, 0.999)
}

func TestRandomTallSkinnyCondition(t *testing.T) {
	for _, cond := range []float64{1, 1e3, 1e8} {
		v := RandomTallSkinny(300, 8, cond, 1)
		got := la.GramCond2(v)
		if math.Abs(math.Log10(got)-math.Log10(cond)) > 0.5 {
			t.Fatalf("cond target %v, got %v", cond, got)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a1 := G3Circuit(testScale)
	a2 := G3Circuit(testScale)
	if a1.A.NNZ() != a2.A.NNZ() {
		t.Fatal("nondeterministic generator")
	}
	for k := range a1.A.Val {
		if a1.A.Val[k] != a2.A.Val[k] {
			t.Fatal("nondeterministic values")
		}
	}
}

func assertSymmetricStructure(t *testing.T, a *sparse.CSR) {
	t.Helper()
	at := a.Transpose()
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		tcols, _ := at.Row(i)
		if len(cols) != len(tcols) {
			t.Fatalf("row %d: structure not symmetric (%d vs %d)", i, len(cols), len(tcols))
		}
		for k := range cols {
			if cols[k] != tcols[k] {
				t.Fatalf("row %d: pattern mismatch", i)
			}
		}
	}
}

func assertDiagDominant(t *testing.T, a *sparse.CSR, factor float64) {
	t.Helper()
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var diag, off float64
		for k, j := range cols {
			if j == i {
				diag += math.Abs(vals[k])
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag < factor*off {
			t.Fatalf("row %d not dominant: diag %v vs off %v", i, diag, off)
		}
	}
}
