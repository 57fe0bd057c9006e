// Package graph provides the combinatorial machinery of the reproduction:
// the adjacency-graph view of a sparse matrix on int32 vertex ids,
// breadth-first searches in one reused scratch, reverse Cuthill-McKee
// ordering (the paper uses HSL MC60), and a k-way partitioner with
// boundary refinement standing in for METIS, plus a column-net
// hypergraph refinement of it. The matrix powers kernel's boundary sets
// are searched on the matrix itself, in internal/dist.
package graph

import (
	"fmt"
	"math"
	"slices"

	"cagmres/internal/sparse"
)

// Graph is an undirected adjacency structure in CSR-like form. For a
// structurally nonsymmetric matrix the graph of A + A' is used, which is
// the dependency graph relevant to both reordering and the matrix powers
// kernel. Vertex ids are int32: half the footprint of every search's
// random reads, and FromMatrix refuses an n beyond that range.
type Graph struct {
	N   int
	Ptr []int
	Adj []int32
}

// FromMatrix builds the symmetrized adjacency graph of a square sparse
// matrix. Self-loops (diagonal entries) are dropped. Each adjacency list
// is ascending and free of duplicates.
func FromMatrix(a *sparse.CSR) *Graph {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("graph: FromMatrix needs square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: n=%d exceeds the int32 vertex range", n))
	}
	if offDiag, ok := symmetricPattern(a); ok {
		// A's own off-diagonal pattern is the graph, already ascending.
		ptr := make([]int, n+1)
		adj := make([]int32, 0, offDiag)
		for i := 0; i < n; i++ {
			for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
				if j != i {
					adj = append(adj, int32(j))
				}
			}
			ptr[i+1] = len(adj)
		}
		return &Graph{N: n, Ptr: ptr, Adj: adj}
	}
	// Lay out the entries of A and A' per vertex without materializing
	// A', then sort and dedupe each list in place.
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if j != i {
				ptr[i+1]++
				ptr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int32, ptr[n])
	next := slices.Clone(ptr[:n])
	for i := 0; i < n; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if j != i {
				adj[next[i]] = int32(j)
				next[i]++
				adj[next[j]] = int32(i)
				next[j]++
			}
		}
	}
	write, start := 0, 0
	for i := 0; i < n; i++ {
		end := ptr[i+1]
		lst := adj[start:end]
		slices.Sort(lst)
		for k, v := range lst {
			if k == 0 || lst[k-1] != v {
				adj[write] = v
				write++
			}
		}
		start = end
		ptr[i+1] = write
	}
	return &Graph{N: n, Ptr: ptr, Adj: adj[:write]}
}

// symmetricPattern reports whether a's pattern is structurally symmetric
// with strictly ascending rows — true of every generator's matrix — and
// counts its off-diagonal entries. Each entry above the diagonal must
// find its mirror by binary search, and there must be as many entries
// below the diagonal as above: the mirror map is then a bijection.
func symmetricPattern(a *sparse.CSR) (offDiag int, ok bool) {
	upper, lower := 0, 0
	for i := 0; i < a.Rows; i++ {
		prev := -1
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			switch {
			case j <= prev:
				return 0, false
			case j > i:
				if _, found := slices.BinarySearch(a.ColIdx[a.RowPtr[j]:a.RowPtr[j+1]], i); !found {
					return 0, false
				}
				upper++
			case j < i:
				lower++
			}
			prev = j
		}
	}
	return upper + lower, upper == lower
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// Neighbors returns the adjacency list of v as a view.
func (g *Graph) Neighbors(v int) []int32 { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// bfs runs a breadth-first search from root into caller-owned storage
// and returns the vertices whose level it set, in BFS order (queue has
// capacity N). On a level array that is -1 everywhere it reaches, it is
// the plain search: each vertex of root's component gets its distance
// from root, the last level is the queue's tail, and the search costs
// the component, not N. On the distances to earlier roots it is the
// pruned search that makes them distances to the nearest root: it sets
// and expands only the vertices root is strictly closer to. The caller
// hands the returned queue to clearLevels when it is done with level.
func (g *Graph) bfs(level, queue []int32, root int32) []int32 {
	queue = queue[:0]
	if level[root] != 0 {
		level[root] = 0
		queue = append(queue, root)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := level[v] + 1
		for _, w := range g.Neighbors(int(v)) {
			// -1 (unreached) compares as the largest uint32.
			if uint32(level[w]) > uint32(d) {
				level[w] = d
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// clearLevels sets level back to -1 at the vertices of a search's queue.
func clearLevels(level, queue []int32) {
	for _, v := range queue {
		level[v] = -1
	}
}

// bfsScratch is the storage the breadth-first searches of one caller
// share: two level arrays, -1 everywhere between searches, and a queue
// for each, so the George-Liu iteration keeps the best search so far
// while it tries the next.
type bfsScratch struct {
	level, queue [2][]int32
}

func newBFSScratch(n int) *bfsScratch {
	buf := make([]int32, 4*n)
	for i := range buf[:2*n] {
		buf[i] = -1
	}
	return &bfsScratch{
		level: [2][]int32{buf[:n:n], buf[n : 2*n : 2*n]},
		queue: [2][]int32{buf[2*n : 2*n : 3*n], buf[3*n : 3*n : 4*n]},
	}
}

// pseudoPeripheral finds an approximate peripheral vertex starting from
// start using the George-Liu iteration: repeatedly move to a
// minimum-degree vertex in the last BFS level until the eccentricity
// stops growing. Good RCM orderings start from such vertices, and k-way
// growing starts its first part there. It searches in sc and touches
// start's component only. The levels of the search from the vertex it
// returns stay in sc — level is one of sc's level arrays, queue that
// search's queue; the other array is left clean — so a caller that
// wants them does not search again, and one that does not clears them.
func (g *Graph) pseudoPeripheral(sc *bfsScratch, start int32) (v int32, level, queue []int32) {
	cur := 0
	v = start
	q := g.bfs(sc.level[cur], sc.queue[cur], v)
	nl := sc.level[cur][q[len(q)-1]] + 1
	for {
		// The minimum-degree vertex of the last level, the lowest index
		// winning ties.
		level := sc.level[cur]
		best, bestDeg := int32(-1), g.N+1
		for i := len(q) - 1; i >= 0 && level[q[i]] == nl-1; i-- {
			u := q[i]
			if d := g.Degree(int(u)); d < bestDeg || (d == bestDeg && u < best) {
				best, bestDeg = u, d
			}
		}
		alt := 1 - cur
		q2 := g.bfs(sc.level[alt], sc.queue[alt], best)
		nl2 := sc.level[alt][q2[len(q2)-1]] + 1
		if nl2 <= nl {
			clearLevels(sc.level[alt], q2)
			return v, level, q
		}
		clearLevels(level, q)
		cur, v, q, nl = alt, best, q2, nl2
	}
}
