package sparse_test

import (
	"testing"

	"cagmres/internal/matgen"
)

// BenchmarkMulVecPrefix times the device SpMV kernel over the whole
// matrix of each benchmark workload (`make bench-kernels`): the dense-row
// FEM shape of ca-dense-rows / gmres-dense-rows and the tall 5 nnz/row
// shape of ca-sparse-cold.
func BenchmarkMulVecPrefix(b *testing.B) {
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
				s.MulVecPrefix(y, x, a.Rows)
			}
			b.ReportMetric(s.PadRatio(), "pad")
		})
	}
}
