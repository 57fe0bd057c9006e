package sparse_test

import (
	"math/rand"
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
			cols := make([]int32, a.Cols)
			for i := range cols {
				cols[i] = int32(i)
			}
			s := a.SELLOfRows(0, a.Rows, nil, cols, a.Cols)
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

// BenchmarkFromCoords times coordinate assembly (`make bench-kernels`)
// on the nonzeros of G3_circuit@0.05, the ca-sparse-cold matrix, in a
// seeded shuffled order, and on one row of k entries in descending
// column order at two lengths, whose cost must grow linearly in k, not
// as k². Each op assembles a fresh copy of the list.
func BenchmarkFromCoords(b *testing.B) {
	g3, err := matgen.ByName("G3_circuit", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	a := g3.A
	g3Entries := make([]sparse.Coord, 0, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			g3Entries = append(g3Entries, sparse.Coord{Row: i, Col: c, Val: vals[k]})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(g3Entries), func(i, j int) {
		g3Entries[i], g3Entries[j] = g3Entries[j], g3Entries[i]
	})
	descRow := func(k int) []sparse.Coord {
		row := make([]sparse.Coord, k)
		for i := range row {
			row[i] = sparse.Coord{Row: 0, Col: k - 1 - i, Val: float64(i)}
		}
		return row
	}
	for _, c := range []struct {
		name       string
		rows, cols int
		entries    []sparse.Coord
	}{
		{"G3_circuit-0.05", a.Rows, a.Cols, g3Entries},
		{"desc-row-1e4", 1, 1e4, descRow(1e4)},
		{"desc-row-1e5", 1, 1e5, descRow(1e5)},
	} {
		b.Run(c.name, func(b *testing.B) {
			in := make([]sparse.Coord, len(c.entries))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(in, c.entries)
				b.StartTimer()
				sparse.FromCoords(c.rows, c.cols, in)
			}
		})
	}
}
