package cagmres

import (
	"bytes"
	"testing"
)

func TestPublicAPISolve(t *testing.T) {
	ctx := NewContext(2)
	a := Laplace2D(20, 20, 0.3)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	p, err := NewProblem(ctx, a, b, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CAGMRES(p, Options{M: 30, S: 6, Tol: 1e-6, Ortho: "CholQR"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence: %v", res.RelRes)
	}
	if rn := ResidualNorm(a, b, res.X); rn > 1e-3 {
		t.Fatalf("true residual %v", rn)
	}
}

func TestPublicAPIGMRES(t *testing.T) {
	ctx := NewContext(1)
	a := Laplace3D(8, 8, 8, 0.2)
	b := make([]float64, a.Rows)
	b[0] = 1
	p, err := NewProblem(ctx, a, b, Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GMRES(p, Options{M: 25, Tol: 1e-8, Ortho: "MGS"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("GMRES did not converge")
	}
	// The ledger is exposed through the public API.
	if res.Stats.Phase("spmv").Rounds == 0 {
		t.Fatal("ledger empty")
	}
}

func TestPublicAPIMatrixRoundTrip(t *testing.T) {
	a := FromCoords(2, 2, []Coord{{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 3}, {Row: 0, Col: 1, Val: -1}})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(0, 1) != -1 {
		t.Fatal("round trip lost entries")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	for _, name := range []string{"cant", "G3_circuit", "dielFilterV2real", "nlpkkt120"} {
		a, err := GenerateMatrix(name, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rows == 0 || a.NNZ() == 0 {
			t.Fatalf("%s: empty matrix", name)
		}
	}
	if _, err := GenerateMatrix("nope", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestPublicAPICustomModel(t *testing.T) {
	prof, err := MachineProfile("m2090")
	if err != nil {
		t.Fatal(err)
	}
	prof.Model.Latency *= 10 // a node with dreadful PCIe
	ctx := NewContextWithProfile(3, prof)
	a := Laplace2D(12, 12, 0)
	b := make([]float64, a.Rows)
	b[0] = 1
	p, err := NewProblem(ctx, a, b, Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GMRES(p, Options{M: 10, Tol: 1e-6}); err != nil {
		t.Fatal(err)
	}
}
