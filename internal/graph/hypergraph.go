package graph

import (
	"math/rand"

	"cagmres/internal/sparse"
)

// Hypergraph partitioning — the alternative the paper's conclusion
// singles out ("we also plan to study other partitioning algorithms
// (e.g., hypergraph partitioning)"). For a block-row distribution the
// natural column-net model applies: every matrix column j induces a net
// (hyperedge) containing the owners of the rows with a nonzero in column
// j. A net spanning lambda parts forces its column's vector entry to be
// shipped to lambda-1 extra devices, so the connectivity-minus-one metric
//
//	sum_over_nets (lambda(net) - 1)
//
// counts the SpMV communication volume EXACTLY, where the graph edge cut
// only approximates it (a vertex with many cut edges is double-counted by
// edge cut but shipped once in reality).
type Hypergraph struct {
	// Vertices are matrix rows; nets are matrix columns. NetPtr/NetVert
	// store, per net, the vertices (rows) whose row has a nonzero in
	// that column, in CSR-like layout.
	N       int // vertices (rows)
	Nets    int // nets (columns)
	NetPtr  []int
	NetVert []int
	// VertPtr/VertNet is the transpose: the nets touching each vertex.
	VertPtr []int
	VertNet []int
}

// ColumnNetHypergraph builds the column-net hypergraph of a square sparse
// matrix.
func ColumnNetHypergraph(a *sparse.CSR) *Hypergraph {
	n := a.Rows
	h := &Hypergraph{N: n, Nets: a.Cols}
	// Count vertices per net (nonzeros per column).
	counts := make([]int, a.Cols+1)
	for _, c := range a.ColIdx {
		counts[c+1]++
	}
	h.NetPtr = make([]int, a.Cols+1)
	for j := 0; j < a.Cols; j++ {
		h.NetPtr[j+1] = h.NetPtr[j] + counts[j+1]
	}
	h.NetVert = make([]int, a.NNZ())
	next := append([]int(nil), h.NetPtr[:a.Cols]...)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			h.NetVert[next[c]] = i
			next[c]++
		}
	}
	// Transpose: nets per vertex (this is just the row pattern).
	h.VertPtr = append([]int(nil), a.RowPtr...)
	h.VertNet = append([]int(nil), a.ColIdx...)
	return h
}

// Connectivity returns the (lambda - 1) communication metric of a
// partition: the exact number of vector elements shipped between parts
// per SpMV.
func (h *Hypergraph) Connectivity(p *Partition) int {
	seen := make([]int, p.K)
	for i := range seen {
		seen[i] = -1
	}
	total := 0
	for net := 0; net < h.Nets; net++ {
		lambda := 0
		for k := h.NetPtr[net]; k < h.NetPtr[net+1]; k++ {
			d := p.Part[h.NetVert[k]]
			if seen[d] != net {
				seen[d] = net
				lambda++
			}
		}
		if lambda > 1 {
			total += lambda - 1
		}
	}
	return total
}

// PartitionHypergraph computes a k-way partition minimizing the
// connectivity-minus-one metric: greedy BFS-style growing (seeded like
// KWay) followed by FM-style single-vertex moves evaluated on the true
// hypergraph gain. It is slower per refinement pass than the graph
// partitioner but optimizes the quantity the distributed SpMV actually
// pays for.
func PartitionHypergraph(a *sparse.CSR, k int, seed int64) *Partition {
	g := FromMatrix(a)
	// Start from the graph partitioner's output: a good initial guess.
	p := KWay(g, k, seed)
	if k == 1 {
		return p
	}
	h := ColumnNetHypergraph(a)
	refineHypergraph(h, p, 4, seed)
	return p
}

// refineHypergraph performs passes of greedy moves that reduce the
// connectivity metric while respecting a 10% balance cap.
func refineHypergraph(h *Hypergraph, p *Partition, passes int, seed int64) {
	n := h.N
	k := p.K
	size := make([]int, k)
	for _, d := range p.Part {
		size[d]++
	}
	maxSize := (n*110)/(100*k) + 1
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)

	// pins[net][part] counts would be memory-hungry; recompute per-net
	// pin counts lazily for the nets touching a candidate vertex.
	pinCount := func(net int, part int32) int {
		c := 0
		for kk := h.NetPtr[net]; kk < h.NetPtr[net+1]; kk++ {
			if p.Part[h.NetVert[kk]] == part {
				c++
			}
		}
		return c
	}
	// moveGain computes the change in the connectivity metric if vertex
	// v moves from its home to part dst (positive = improvement).
	moveGain := func(v int, dst int32) int {
		home := p.Part[v]
		gain := 0
		for kk := h.VertPtr[v]; kk < h.VertPtr[v+1]; kk++ {
			net := h.VertNet[kk]
			homePins := pinCount(net, home)
			dstPins := pinCount(net, dst)
			// Leaving home: if v was the last home pin, lambda drops.
			if homePins == 1 {
				gain++
			}
			// Arriving at dst: if dst had no pins, lambda grows.
			if dstPins == 0 {
				gain--
			}
		}
		return gain
	}

	// cand[d] == tick marks part d a candidate destination of the vertex
	// being moved; the candidates are scanned in ascending part id, so of
	// equal gains the lowest part wins and the result is deterministic.
	cand, tick := make([]int, k), 0
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, v := range order {
			home := p.Part[v]
			if size[home] <= 1 {
				continue
			}
			// Candidate destinations: parts of neighboring pins.
			tick++
			for kk := h.VertPtr[v]; kk < h.VertPtr[v+1]; kk++ {
				net := h.VertNet[kk]
				for nn := h.NetPtr[net]; nn < h.NetPtr[net+1]; nn++ {
					cand[p.Part[h.NetVert[nn]]] = tick
				}
			}
			best, bestGain := home, 0
			for dst := range int32(k) {
				if cand[dst] != tick || dst == home || size[dst] >= maxSize {
					continue
				}
				if g := moveGain(v, dst); g > bestGain {
					best, bestGain = dst, g
				}
			}
			if best != home {
				p.Part[v] = best
				size[home]--
				size[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
