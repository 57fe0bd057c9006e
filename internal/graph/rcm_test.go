package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

// referenceRCM is the ordering as first written: a whole-graph
// pseudo-peripheral search per component and a fresh, closure-sorted
// neighbour list per vertex. RCM must return its perm exactly.
func referenceRCM(g *Graph) []int {
	perm := make([]int, 0, g.N)
	visited := make([]bool, g.N)
	for s := 0; s < g.N; s++ {
		if visited[s] {
			continue
		}
		root := referencePseudoPeripheral(g, s)
		if visited[root] {
			root = s
		}
		visited[root] = true
		queue := []int{root}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			perm = append(perm, v)
			nbrs := make([]int, 0, g.Degree(v))
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, int(w))
				}
			}
			sort.Slice(nbrs, func(a, b int) bool {
				da, db := g.Degree(nbrs[a]), g.Degree(nbrs[b])
				if da != db {
					return da < db
				}
				return nbrs[a] < nbrs[b]
			})
			queue = append(queue, nbrs...)
		}
	}
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// TestRCMMatchesReference: on the four generators, a graph of several
// components of different shapes and a diagonal, RCM's perm is the
// reference's, entry for entry.
func TestRCMMatchesReference(t *testing.T) {
	graphs := map[string]*sparse.CSR{
		"diagonal": diagonal(50),
		// A path, a grid, two isolated vertices and a star, interleaved
		// by a shuffle so components do not occupy index ranges.
		"disconnected": disconnected(),
	}
	for _, mat := range matgen.PaperSet(0.002) {
		graphs[mat.Name] = mat.A
	}
	for name, a := range graphs {
		g := FromMatrix(a)
		if got, want := RCM(g), referenceRCM(g); !slices.Equal(got, want) {
			t.Errorf("%s: RCM differs from the reference", name)
		}
	}
}

// disconnected builds a shuffled union of a path, a grid, two isolated
// vertices and a star.
func disconnected() *sparse.CSR {
	var entries []sparse.Coord
	n := 0
	add := func(a *sparse.CSR) {
		for i := 0; i < a.Rows; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				entries = append(entries, sparse.Coord{Row: n + i, Col: n + a.ColIdx[k], Val: 1})
			}
		}
		n += a.Rows
	}
	add(pathMatrix(7))
	add(grid2D(5, 4))
	add(diagonal(2))
	star := []sparse.Coord{{Row: 0, Col: 0, Val: 1}}
	for i := 1; i < 6; i++ {
		star = append(star, sparse.Coord{Row: 0, Col: i, Val: 1}, sparse.Coord{Row: i, Col: 0, Val: 1})
	}
	add(sparse.FromCoords(6, 6, star))
	return sparse.FromCoords(n, n, entries).Permute(rand.New(rand.NewSource(5)).Perm(n))
}

// TestRCMAllocationsDoNotGrowWithComponents: RCM's allocations are its
// result, its marks and one search scratch, however many components the
// graph has.
func TestRCMAllocationsDoNotGrowWithComponents(t *testing.T) {
	for _, n := range []int{10, 1000} {
		g := FromMatrix(diagonal(n))
		if got := testing.AllocsPerRun(5, func() { RCM(g) }); got > 5 {
			t.Errorf("diagonal of %d: %v allocations, want at most 5", n, got)
		}
	}
}
