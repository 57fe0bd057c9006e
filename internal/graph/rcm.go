package graph

import (
	"cmp"
	"slices"
)

// RCM computes the reverse Cuthill-McKee ordering of the graph. The
// returned slice perm satisfies perm[new] = old: relabeling the matrix
// with sparse.Permute(perm) concentrates nonzeros near the diagonal,
// which is what keeps the matrix powers kernel's boundary sets small for
// banded problems (the paper's "cant" case).
//
// Each connected component is ordered from a pseudo-peripheral start
// vertex; within a BFS level, vertices are visited in order of increasing
// degree (the Cuthill-McKee tie-break), and the whole ordering is
// reversed at the end.
func RCM(g *Graph) []int {
	perm := make([]int, 0, g.N)
	visited := make([]bool, g.N)
	sc := newBFSScratch(g.N)
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	nbrs := make([]int32, 0, maxDeg)
	byDegree := func(a, b int32) int {
		if da, db := g.Degree(int(a)), g.Degree(int(b)); da != db {
			return cmp.Compare(da, db)
		}
		return cmp.Compare(a, b)
	}
	for s := 0; s < g.N; s++ {
		if visited[s] {
			continue
		}
		// The component's Cuthill-McKee queue is its stretch of perm.
		root, level, q := g.pseudoPeripheral(sc, int32(s))
		clearLevels(level, q)
		visited[root] = true
		perm = append(perm, int(root))
		for head := len(perm) - 1; head < len(perm); head++ {
			nbrs = nbrs[:0]
			for _, w := range g.Neighbors(perm[head]) {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			slices.SortFunc(nbrs, byDegree)
			for _, w := range nbrs {
				perm = append(perm, int(w))
			}
		}
	}
	slices.Reverse(perm)
	return perm
}

// Bandwidth returns the half-bandwidth of the matrix structure under the
// identity ordering: max |i - j| over edges.
func Bandwidth(g *Graph) int {
	bw := 0
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			d := v - int(w)
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// PermutedBandwidth returns the half-bandwidth after applying perm
// (perm[new] = old) without materializing the permuted graph.
func PermutedBandwidth(g *Graph, perm []int) int {
	inv := make([]int, g.N)
	for newIdx, old := range perm {
		inv[old] = newIdx
	}
	bw := 0
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			d := inv[v] - inv[w]
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// IsPermutation reports whether perm is a valid permutation of 0..n-1.
func IsPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
