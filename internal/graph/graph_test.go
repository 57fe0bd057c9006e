package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

// path builds the adjacency matrix of a path graph 0-1-2-...-n-1.
func pathMatrix(n int) *sparse.CSR {
	entries := make([]sparse.Coord, 0, 3*n)
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 2})
		if i+1 < n {
			entries = append(entries, sparse.Coord{Row: i, Col: i + 1, Val: -1})
			entries = append(entries, sparse.Coord{Row: i + 1, Col: i, Val: -1})
		}
	}
	return sparse.FromCoords(n, n, entries)
}

// grid2D builds the 5-point Laplacian structure of an nx x ny grid.
func grid2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	id := func(x, y int) int { return y*nx + x }
	entries := make([]sparse.Coord, 0, 5*n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 4})
			if x > 0 {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x-1, y), Val: -1})
			}
			if x+1 < nx {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x+1, y), Val: -1})
			}
			if y > 0 {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x, y-1), Val: -1})
			}
			if y+1 < ny {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x, y+1), Val: -1})
			}
		}
	}
	return sparse.FromCoords(n, n, entries)
}

func TestFromMatrixPath(t *testing.T) {
	g := FromMatrix(pathMatrix(5))
	if g.N != 5 || g.NumEdges() != 4 {
		t.Fatalf("N=%d edges=%d", g.N, g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatal("degrees wrong")
	}
	nb := g.Neighbors(2)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Fatalf("Neighbors(2) = %v", nb)
	}
}

func TestFromMatrixSymmetrizes(t *testing.T) {
	// Nonsymmetric structure: edge stored only one way must still appear.
	a := sparse.FromCoords(3, 3, []sparse.Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: 5}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 1},
	})
	g := FromMatrix(a)
	if g.Degree(2) != 1 || g.Neighbors(2)[0] != 0 {
		t.Fatal("symmetrization failed")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestFromMatrixDropsDuplicateEdges(t *testing.T) {
	// Both a_01 and a_10 stored: only one undirected edge.
	a := sparse.FromCoords(2, 2, []sparse.Coord{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 2},
	})
	g := FromMatrix(a)
	if g.NumEdges() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("edges=%d deg0=%d", g.NumEdges(), g.Degree(0))
	}
}

// bfsLevels is a textbook breadth-first search into fresh storage: the
// level of every vertex (-1 if unreachable) and the number of levels.
func bfsLevels(g *Graph, roots ...int) ([]int, int) {
	level := make([]int, g.N)
	for i := range level {
		level[i] = -1
	}
	var frontier []int
	for _, r := range roots {
		if level[r] == -1 {
			level[r] = 0
			frontier = append(frontier, r)
		}
	}
	nl := 0
	for ; len(frontier) > 0; nl++ {
		var next []int
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if level[w] == -1 {
					level[w] = nl + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return level, nl
}

// allUnset reports whether every entry of level is -1.
func allUnset(level []int) bool {
	for _, l := range level {
		if l != -1 {
			return false
		}
	}
	return true
}

func TestBFSLevelsPath(t *testing.T) {
	g := FromMatrix(pathMatrix(6))
	level, nl := bfsLevels(g, 0)
	if nl != 6 {
		t.Fatalf("nlevels = %d", nl)
	}
	for i := 0; i < 6; i++ {
		if level[i] != i {
			t.Fatalf("level[%d] = %d", i, level[i])
		}
	}
	// Multi-root BFS from both ends meets in the middle.
	level, nl = bfsLevels(g, 0, 5)
	if nl != 3 {
		t.Fatalf("two-root nlevels = %d", nl)
	}
	if level[2] != 2 || level[3] != 2 {
		t.Fatalf("levels %v", level)
	}
}

func TestBFSUnreachable(t *testing.T) {
	// Two disconnected vertices.
	a := sparse.FromCoords(2, 2, []sparse.Coord{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}})
	g := FromMatrix(a)
	level, _ := bfsLevels(g, 0)
	if level[1] != -1 {
		t.Fatal("unreachable vertex should be -1")
	}
}

func TestPseudoPeripheralPath(t *testing.T) {
	g := FromMatrix(pathMatrix(9))
	pp := g.pseudoPeripheral(newBFSScratch(g.N), 4)
	if pp != 0 && pp != 8 {
		t.Fatalf("pseudo-peripheral = %d, want an endpoint", pp)
	}
}

// referencePseudoPeripheral is the George-Liu iteration over bfsLevels,
// a fresh level array per search: what pseudoPeripheral must reproduce
// out of two reused ones.
func referencePseudoPeripheral(g *Graph, start int) int {
	v := start
	level, nl := bfsLevels(g, v)
	for {
		best, bestDeg := -1, g.N+1
		for u := 0; u < g.N; u++ {
			if level[u] == nl-1 && g.Degree(u) < bestDeg {
				best, bestDeg = u, g.Degree(u)
			}
		}
		if best < 0 {
			return v
		}
		l2, nl2 := bfsLevels(g, best)
		if nl2 <= nl {
			return v
		}
		v, level, nl = best, l2, nl2
	}
}

// TestScratchBFSMatchesBFSLevels: on the four generators, searches through
// one reused scratch — used by the search before — return the levels a
// search into fresh storage returns, the queue lists what they reached
// level by level, clearing it leaves the scratch as new, and the
// pseudo-peripheral vertex built on them is the one the allocating
// iteration finds.
func TestScratchBFSMatchesBFSLevels(t *testing.T) {
	for _, mat := range matgen.PaperSet(0.002) {
		g := FromMatrix(mat.A)
		sc := newBFSScratch(g.N)
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 4; trial++ {
			roots := make([]int, 1+trial)
			for i := range roots {
				roots[i] = rng.Intn(g.N)
			}
			want, wantLevels := bfsLevels(g, roots...)
			q := g.bfs(sc.level, sc.queue, roots)
			if !slices.Equal(sc.level, want) || sc.level[q[len(q)-1]]+1 != wantLevels ||
				!slices.IsSortedFunc(q, func(a, b int) int { return sc.level[a] - sc.level[b] }) {
				t.Fatalf("%s: scratch BFS from %v differs from a fresh one", mat.Name, roots)
			}
			clearLevels(sc.level, q)
			if got, want := g.pseudoPeripheral(sc, roots[0]), referencePseudoPeripheral(g, roots[0]); got != want {
				t.Fatalf("%s: pseudo-peripheral vertex from %d: %d, want %d", mat.Name, roots[0], got, want)
			}
			if !allUnset(sc.level) {
				t.Fatalf("%s: a search left the scratch dirty", mat.Name)
			}
		}
	}
}

func TestRCMIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		entries := make([]sparse.Coord, 0, n*4)
		for i := 0; i < n; i++ {
			entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 1})
			for d := 0; d < 3; d++ {
				j := rng.Intn(n)
				entries = append(entries, sparse.Coord{Row: i, Col: j, Val: 1})
			}
		}
		g := FromMatrix(sparse.FromCoords(n, n, entries))
		return IsPermutation(RCM(g), n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRCMReducesGridBandwidth(t *testing.T) {
	// A shuffled 2D grid has terrible bandwidth; RCM must restore
	// something close to the grid's natural bandwidth (nx).
	nx, ny := 12, 12
	a := grid2D(nx, ny)
	rng := rand.New(rand.NewSource(7))
	shuffle := rng.Perm(nx * ny)
	shuffled := a.Permute(shuffle)
	g := FromMatrix(shuffled)
	before := Bandwidth(g)
	perm := RCM(g)
	after := PermutedBandwidth(g, perm)
	if after >= before {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
	if after > 3*nx {
		t.Fatalf("RCM bandwidth %d too large for %dx%d grid", after, nx, ny)
	}
}

func TestRCMHandlesDisconnected(t *testing.T) {
	a := sparse.FromCoords(4, 4, []sparse.Coord{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 2, Val: 1}, {Row: 3, Col: 3, Val: 1},
	})
	g := FromMatrix(a)
	perm := RCM(g)
	if !IsPermutation(perm, 4) {
		t.Fatalf("perm = %v", perm)
	}
}

func TestBandwidthPath(t *testing.T) {
	g := FromMatrix(pathMatrix(10))
	if bw := Bandwidth(g); bw != 1 {
		t.Fatalf("path bandwidth = %d", bw)
	}
}
