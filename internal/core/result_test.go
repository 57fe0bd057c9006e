package core

import (
	"fmt"
	"math"
	"testing"

	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/sparse"
)

// mulVec computes y := A x row by row, each row's products summed in
// column order: the host product the solvers are checked against.
func mulVec(a *sparse.CSR, y, x []float64) {
	for i := range y {
		cols, vals := a.Row(i)
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
	}
}

// unmapOracle is the unmap the one-pass result path replaced, kept as its
// oracle: a working copy of the gathered column divided by the Jacobi
// diagonal, then unscaled, then scattered into a third vector.
func unmapOracle(p *Problem, x []float64) []float64 {
	work := append([]float64(nil), x...)
	if p.jacobi != nil {
		for i := range work {
			work[i] /= p.jacobi[i]
		}
	}
	if p.colScale != nil {
		for i := range work {
			work[i] *= p.colScale[i]
		}
	}
	if p.perm == nil {
		return work
	}
	out := make([]float64, len(work))
	for newIdx, old := range p.perm {
		out[old] = work[newIdx]
	}
	return out
}

// residualNormOracle is the ResidualNorm that formed the whole product
// A x before summing, kept as the oracle of the fused one.
func residualNormOracle(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, len(b))
	mulVec(a, r, x)
	var rn, bn float64
	for i := range r {
		d := b[i] - r[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	if bn == 0 {
		return math.Sqrt(rn)
	}
	return math.Sqrt(rn / bn)
}

// awkward is a seeded vector with a NaN, both infinities, a negative
// zero and a subnormal planted in it.
func awkward(n int, seed int64) []float64 {
	x := randomRHS(n, seed)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324} {
		x[(7*i+int(seed))%n] = v
	}
	return x
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// planted is laplace2D with a negative diagonal entry (so a Jacobi
// division of zero gives -0) and, if nonFinite, an Inf and a NaN entry.
func planted(nonFinite bool) *sparse.CSR {
	a := laplace2D(9, 7, 0.3)
	for k := a.RowPtr[33]; k < a.RowPtr[34]; k++ {
		if a.ColIdx[k] == 33 {
			a.Val[k] = -4
		}
	}
	if nonFinite {
		a.Val[a.RowPtr[5]] = math.Inf(1)
		a.Val[a.RowPtr[41]+1] = math.NaN()
	}
	return a
}

// TestSolutionMatchesUnmapOracle: the one-pass result path returns the
// bits of the three-copy unmap it replaced, over every ordering, balance
// on and off, Jacobi on and off, one to three devices and matrices and
// columns with non-finite entries — and, on the zero column, the bits of
// the trivial system's x.
func TestSolutionMatchesUnmapOracle(t *testing.T) {
	for _, nonFinite := range []bool{false, true} {
		a := planted(nonFinite)
		n := a.Rows
		for ng := 1; ng <= 3; ng++ {
			for _, ord := range []Ordering{Natural, RCM, KWay} {
				for _, balance := range []bool{false, true} {
					for _, jacobi := range []bool{false, true} {
						tag := fmt.Sprintf("nonFinite=%v ng=%d %s balance=%v jacobi=%v", nonFinite, ng, ord, balance, jacobi)
						ctx := gpu.NewContext(ng, gpu.M2090())
						p, err := Prepare(ctx, a, ord, balance)
						if err != nil {
							t.Fatal(err)
						}
						if jacobi {
							p.ApplyJacobi()
						}
						v := dist.NewVectors(ctx, p.Layout, 2)
						v.SetColFromHost(1, awkward(n, int64(ng)))
						for j := range 2 {
							if got, want := p.solution(v, j), unmapOracle(p, v.GatherCol(j)); !sameFloatBits(got, want) {
								t.Fatalf("%s column %d: solution differs from the unmap oracle", tag, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestResidualNormMatchesOracle: the fused residual norm returns the bits
// of the one that formed A x first, on finite and non-finite matrices
// and vectors and on a zero right-hand side, and still refuses a shape
// mismatch.
func TestResidualNormMatchesOracle(t *testing.T) {
	for _, nonFinite := range []bool{false, true} {
		a := planted(nonFinite)
		n := a.Rows
		for seed := int64(1); seed <= 4; seed++ {
			for _, bx := range [][2][]float64{
				{randomRHS(n, seed), randomRHS(n, seed+10)},
				{awkward(n, seed), randomRHS(n, seed+10)},
				{randomRHS(n, seed), awkward(n, seed+10)},
				{make([]float64, n), randomRHS(n, seed+10)},
			} {
				got, want := ResidualNorm(a, bx[0], bx[1]), residualNormOracle(a, bx[0], bx[1])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("nonFinite=%v seed %d: ResidualNorm %v, oracle %v", nonFinite, seed, got, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ResidualNorm accepted an x of the wrong length")
		}
	}()
	a := laplace2D(3, 3, 0)
	ResidualNorm(a, make([]float64, 9), make([]float64, 8))
}

// TestResidualNormAllocatesNothing: the host check forms no vector.
func TestResidualNormAllocatesNothing(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	b, x := randomRHS(400, 1), randomRHS(400, 2)
	if allocs := testing.AllocsPerRun(5, func() { ResidualNorm(a, b, x) }); allocs != 0 {
		t.Fatalf("ResidualNorm allocates %v times", allocs)
	}
}
