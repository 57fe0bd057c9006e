package graph

import (
	"fmt"
	"testing"

	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

// diagonal is the structure of an n x n diagonal matrix: n components of
// one vertex each, RCM's worst case for per-component work.
func diagonal(n int) *sparse.CSR {
	entries := make([]sparse.Coord, n)
	for i := range entries {
		entries[i] = sparse.Coord{Row: i, Col: i, Val: 1}
	}
	return sparse.FromCoords(n, n, entries)
}

func benchGraph(b *testing.B, name string, scale float64) *Graph {
	b.Helper()
	mat, err := matgen.ByName(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	return FromMatrix(mat.A)
}

// BenchmarkKWay times the k-way partitioner at the benchmark's G3 shape
// and at cant with k = 4, where balanceParts has moves to make.
func BenchmarkKWay(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
		k     int
	}{{"G3_circuit", 0.05, 3}, {"cant", 0.05, 4}} {
		g := benchGraph(b, c.name, c.scale)
		b.Run(fmt.Sprintf("%s@%g/k=%d", c.name, c.scale, c.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				KWay(g, c.k, 1)
			}
		})
	}
}

// BenchmarkRCM times the ordering on one connected dense-row matrix and
// on a diagonal of 32 000 one-vertex components.
func BenchmarkRCM(b *testing.B) {
	for _, c := range []struct {
		name string
		g    func() *Graph
	}{
		{"dielFilterV2real@0.02", func() *Graph { return benchGraph(b, "dielFilterV2real", 0.02) }},
		{"diagonal/n=32000", func() *Graph { return FromMatrix(diagonal(32000)) }},
	} {
		g := c.g()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RCM(g)
			}
		})
	}
}
