// Package graph provides the combinatorial machinery of the reproduction:
// the adjacency-graph view of a sparse matrix, breadth-first searches,
// reverse Cuthill-McKee ordering (the paper uses HSL MC60), a k-way
// partitioner with boundary refinement standing in for METIS, and the
// s-level reachability sets that define the matrix powers kernel's
// boundary index sets delta^(d,k).
package graph

import (
	"fmt"
	"sort"

	"cagmres/internal/sparse"
)

// Graph is an undirected adjacency structure in CSR-like form. For a
// structurally nonsymmetric matrix the graph of A + A' is used, which is
// the dependency graph relevant to both reordering and the matrix powers
// kernel.
type Graph struct {
	N   int
	Ptr []int
	Adj []int
}

// FromMatrix builds the symmetrized adjacency graph of a square sparse
// matrix. Self-loops (diagonal entries) are dropped.
func FromMatrix(a *sparse.CSR) *Graph {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("graph: FromMatrix needs square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	// Count degree of the symmetrized structure. Use a two-pass counting
	// scheme over A and A' without materializing A'.
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j == i {
				continue
			}
			deg[i]++
			deg[j]++
		}
	}
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + deg[i]
	}
	adj := make([]int, ptr[n])
	next := make([]int, n)
	copy(next, ptr[:n])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j == i {
				continue
			}
			adj[next[i]] = j
			next[i]++
			adj[next[j]] = i
			next[j]++
		}
	}
	g := &Graph{N: n, Ptr: ptr, Adj: adj}
	g.dedupe()
	return g
}

// dedupe sorts each adjacency list and removes duplicate edges (which
// arise when both a_ij and a_ji are stored).
func (g *Graph) dedupe() {
	newPtr := make([]int, g.N+1)
	newAdj := g.Adj[:0]
	write := 0
	start := 0
	for i := 0; i < g.N; i++ {
		end := g.Ptr[i+1]
		lst := g.Adj[start:end]
		sort.Ints(lst)
		rowStart := write
		for k, v := range lst {
			if k > 0 && lst[k-1] == v {
				continue
			}
			newAdj = newAdj[:write+1]
			newAdj[write] = v
			write++
		}
		start = end
		newPtr[i+1] = write
		_ = rowStart
	}
	g.Ptr = newPtr
	g.Adj = newAdj[:write]
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// Neighbors returns the adjacency list of v as a view.
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// bfs runs a breadth-first search from the given roots into caller-owned
// storage: level (length N), which must be -1 at every vertex the search
// reaches, receives the level of each vertex it reaches, and queue
// (capacity N) receives those vertices in BFS order — so the last level
// is the queue's tail, and the search costs the roots' components, not N.
// The caller hands the returned queue to clearLevels when it is done
// with level.
func (g *Graph) bfs(level, queue []int, roots []int) []int {
	queue = queue[:0]
	for _, r := range roots {
		if level[r] == -1 {
			level[r] = 0
			queue = append(queue, r)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if level[w] == -1 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// clearLevels sets level back to -1 at the vertices of a search's queue.
func clearLevels(level, queue []int) {
	for _, v := range queue {
		level[v] = -1
	}
}

// bfsScratch is the storage the breadth-first searches of one caller
// share: a level array, -1 everywhere between searches, and a queue.
type bfsScratch struct {
	level, queue []int
}

func newBFSScratch(n int) *bfsScratch {
	buf := make([]int, 2*n)
	for i := range buf[:n] {
		buf[i] = -1
	}
	return &bfsScratch{level: buf[:n:n], queue: buf[n:n]}
}

// pseudoPeripheral finds an approximate peripheral vertex starting from
// start using the George-Liu iteration: repeatedly move to a
// minimum-degree vertex in the last BFS level until the eccentricity
// stops growing. Good RCM orderings start from such vertices. It searches
// in sc, which it leaves as it found it, and touches start's component
// only.
func (g *Graph) pseudoPeripheral(sc *bfsScratch, start int) int {
	v := start
	q := g.bfs(sc.level, sc.queue, []int{v})
	nl := sc.level[q[len(q)-1]] + 1
	for {
		// The minimum-degree vertex of the last level, the lowest index
		// winning ties.
		best, bestDeg := -1, g.N+1
		for i := len(q) - 1; i >= 0 && sc.level[q[i]] == nl-1; i-- {
			u := q[i]
			if d := g.Degree(u); d < bestDeg || (d == bestDeg && u < best) {
				best, bestDeg = u, d
			}
		}
		clearLevels(sc.level, q)
		q = g.bfs(sc.level, sc.queue, []int{best})
		nl2 := sc.level[q[len(q)-1]] + 1
		if nl2 <= nl {
			clearLevels(sc.level, q)
			return v
		}
		v, nl = best, nl2
	}
}
