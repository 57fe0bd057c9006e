package sparse_test

import (
	"testing"

	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

// BenchmarkMulVecPrefix times the device SpMV kernel over the whole
// matrix of each benchmark workload (`make bench-kernels`): the dense-row
// FEM shape of ca-dense-rows / gmres-dense-rows and the tall 5 nnz/row
// shape of ca-sparse-cold. The scalar rows call the Go loop directly:
// on amd64 with AVX2 the ratio of a pair is what the vector body buys.
func BenchmarkMulVecPrefix(b *testing.B) {
	benchMulVec(b, (*sparse.SELL).MulVecPrefix)
	b.Run("scalar", func(b *testing.B) { benchMulVec(b, (*sparse.SELL).MulVecScalar) })
}

func benchMulVec(b *testing.B, mulVec func(s *sparse.SELL, y, x []float64, rows int)) {
	for _, c := range []struct {
		name, matrix string
		scale        float64
	}{
		{"dielFilterV2real-0.004", "dielFilterV2real", 0.004},
		{"G3_circuit-0.05", "G3_circuit", 0.05},
	} {
		b.Run(c.name, func(b *testing.B) {
			mat, err := matgen.ByName(c.matrix, c.scale)
			if err != nil {
				b.Fatal(err)
			}
			a := mat.A
			identity := make([]int, a.Rows)
			for i := range identity {
				identity[i] = i
			}
			s := a.SELLOfRows(identity, identity, a.Cols)
			x, y := make([]float64, a.Cols), make([]float64, a.Rows)
			for i := range x {
				x[i] = 1 / float64(i+1)
			}
			b.ReportAllocs()
			b.SetBytes(int64(a.NNZ() * 12))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mulVec(s, y, x, a.Rows)
			}
			b.ReportMetric(s.PadRatio(), "pad")
		})
	}
}
