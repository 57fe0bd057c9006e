package sparse

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the sparse kernels: CSR vs ELLPACK SpMV (the
// paper's CPU vs GPU formats) and the conversion/permutation machinery.

func benchCSR(n, deg int) *CSR {
	rng := rand.New(rand.NewSource(1))
	return randCSR(rng, n, deg)
}

func BenchmarkCSRSpMV(b *testing.B) {
	a := benchCSR(1<<16, 8)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

func BenchmarkELLSpMV(b *testing.B) {
	a := benchCSR(1<<16, 8)
	e := ToELL(a)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MulVec(y, x)
	}
}

func BenchmarkToELL(b *testing.B) {
	a := benchCSR(1<<14, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ToELL(a)
	}
}

func BenchmarkPermute(b *testing.B) {
	a := benchCSR(1<<14, 8)
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Permute(perm)
	}
}

func BenchmarkBalance(b *testing.B) {
	a := benchCSR(1<<14, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := a.Clone()
		b.StartTimer()
		Balance(c)
	}
}
