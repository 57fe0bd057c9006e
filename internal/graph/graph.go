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
// storage: level (length N) receives the level of every vertex (-1 if
// unreachable), queue (capacity N) is scratch. It returns the number of
// levels.
func (g *Graph) bfs(level, queue []int, roots []int) (nlevels int) {
	for i := range level {
		level[i] = -1
	}
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
	for _, l := range level {
		if l+1 > nlevels {
			nlevels = l + 1
		}
	}
	return nlevels
}

// bfsScratch is the storage the breadth-first searches of one partition
// call share: two level arrays, because PseudoPeripheral holds one search
// while it runs the next, and the queue.
type bfsScratch struct {
	level, next, queue []int
}

func newBFSScratch(n int) *bfsScratch {
	buf := make([]int, 3*n)
	return &bfsScratch{level: buf[:n:n], next: buf[n : 2*n : 2*n], queue: buf[2*n:][:0]}
}

// PseudoPeripheral finds an approximate peripheral vertex starting from
// start using the George-Liu iteration: repeatedly move to a
// minimum-degree vertex in the last BFS level until the eccentricity
// stops growing. Good RCM orderings start from such vertices.
func (g *Graph) PseudoPeripheral(start int) int {
	return g.pseudoPeripheral(newBFSScratch(g.N), start)
}

func (g *Graph) pseudoPeripheral(sc *bfsScratch, start int) int {
	v := start
	level, next := sc.level, sc.next
	nl := g.bfs(level, sc.queue, []int{v})
	for {
		// minimum-degree vertex in the last level
		best, bestDeg := -1, g.N+1
		for u := 0; u < g.N; u++ {
			if level[u] == nl-1 && g.Degree(u) < bestDeg {
				best, bestDeg = u, g.Degree(u)
			}
		}
		if best < 0 {
			return v
		}
		nl2 := g.bfs(next, sc.queue, []int{best})
		if nl2 <= nl {
			return v
		}
		v, nl = best, nl2
		level, next = next, level
	}
}
