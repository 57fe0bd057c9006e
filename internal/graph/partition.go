package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// Partition assigns each vertex to one of K parts. It is the stand-in for
// METIS k-way partitioning in the paper's "KWY" configurations: the goal
// is to minimize the edge cut (which becomes inter-GPU communication
// volume) while balancing part sizes (which balances SpMV load).
type Partition struct {
	K    int
	Part []int32 // vertex -> part
}

// KWay computes a k-way partition by greedy graph growing from spread
// seeds followed by Fiduccia-Mattheyses-style boundary refinement. seed
// controls the deterministic pseudo-random tie-breaking.
func KWay(g *Graph, k int, seed int64) *Partition {
	if k < 1 {
		panic(fmt.Sprintf("graph: KWay with k=%d", k))
	}
	if k == 1 || g.N == 0 {
		return &Partition{K: k, Part: make([]int32, g.N)}
	}
	p := grow(g, k, rand.New(rand.NewSource(seed)))

	// --- Phase 2: boundary refinement. A few passes of greedy moves that
	// reduce the edge cut without violating a balance cap, preceded by a
	// forced rebalancing of any oversized part. Both skip interior
	// vertices by their external degree, which every move keeps current.
	ext := externalDegrees(g, p)
	balanceParts(g, p, ext)
	refine(g, p, ext, 8)
	return p
}

// grow is KWay's phase 1, greedy growing: pick k seeds far apart (BFS
// sampling), then grow all parts simultaneously, always extending the
// currently smallest part from its frontier.
func grow(g *Graph, k int, rng *rand.Rand) *Partition {
	n := g.N
	sc := newBFSScratch(n)
	seeds := spreadSeeds(g, k, rng, sc)
	p := &Partition{K: k, Part: make([]int32, n)}
	for i := range p.Part {
		p.Part[i] = -1
	}
	size := make([]int, k)
	// Each part's frontier is a FIFO linked through next: head[d] is the
	// vertex being expanded (-1 once the frontier is exhausted), tail[d]
	// the last one queued, and cursor[d] the position in head[d]'s
	// neighbour list before which every vertex is claimed — claims are
	// never undone, so the scan resumes there. A vertex joins one
	// frontier, when its part claims it, and next[v] is written before
	// it is read, so a search level array serves as next.
	next := sc.level[0]
	head, tail := make([]int32, k), make([]int32, k)
	cursor := make([]int, k)
	push := func(d, v int32) {
		if head[d] < 0 {
			head[d], cursor[d] = v, g.Ptr[v]
		} else {
			next[tail[d]] = v
		}
		tail[d] = v
	}
	for d := range head {
		head[d] = -1
	}
	for d, s := range seeds {
		p.Part[s] = int32(d)
		size[d] = 1
		push(int32(d), s)
	}
	assigned := k
	for assigned < n {
		// smallest growable part (FIFO growth keeps regions compact)
		d := -1
		for c := 0; c < k; c++ {
			if head[c] >= 0 && (d == -1 || size[c] < size[d]) {
				d = c
			}
		}
		if d == -1 {
			// all frontiers exhausted (disconnected leftovers): assign
			// remaining vertices to the smallest parts round-robin.
			for v := 0; v < n; v++ {
				if p.Part[v] != -1 {
					continue
				}
				dMin := 0
				for c := 1; c < k; c++ {
					if size[c] < size[dMin] {
						dMin = c
					}
				}
				p.Part[v] = int32(dMin)
				size[dMin]++
				push(int32(dMin), int32(v))
				assigned++
			}
			continue
		}
		// claim the first unassigned neighbour of the frontier head,
		// dropping heads that have none
		for f := head[d]; f >= 0; f = head[d] {
			c, end := cursor[d], g.Ptr[f+1]
			for c < end && p.Part[g.Adj[c]] != -1 {
				c++
			}
			if c < end {
				w := g.Adj[c]
				p.Part[w] = int32(d)
				size[d]++
				assigned++
				push(int32(d), w)
				cursor[d] = c + 1
				break
			}
			if f == tail[d] {
				head[d] = -1
			} else {
				head[d], cursor[d] = next[f], g.Ptr[next[f]]
			}
		}
	}
	return p
}

// spreadSeeds picks k seed vertices that are far apart: the first is a
// pseudo-peripheral vertex, each next seed maximizes its BFS distance to
// all previous seeds, the lowest index winning ties. The search that
// found the first seed leaves its levels in sc; each later seed's pruned
// search turns them into distances to the nearest seed.
func spreadSeeds(g *Graph, k int, rng *rand.Rand, sc *bfsScratch) []int32 {
	n := g.N
	seeds := make([]int32, 1, k)
	var level, q []int32
	seeds[0], level, q = g.pseudoPeripheral(sc, int32(rng.Intn(n)))
	for len(seeds) < k {
		best, bestLvl := int32(-1), int32(-1)
		for v, l := range level {
			if l > bestLvl {
				best, bestLvl = int32(v), l
			}
		}
		if best < 0 || slices.Contains(seeds, best) {
			// graph smaller than k or disconnected remainder: fall back
			// to any unused vertex
			best = -1
			for v := int32(0); int(v) < n; v++ {
				if !slices.Contains(seeds, v) {
					best = v
					break
				}
			}
			if best < 0 {
				best = int32(rng.Intn(n))
			}
		}
		seeds = append(seeds, best)
		if len(seeds) < k {
			q = g.bfs(level, q, best)
		}
	}
	return seeds
}

// externalDegrees returns, per vertex, how many of its neighbours lie in
// another part: a vertex is on the boundary exactly when it is non-zero.
func externalDegrees(g *Graph, p *Partition) []int32 {
	ext := make([]int32, g.N)
	for v := range ext {
		for _, w := range g.Neighbors(v) {
			if p.Part[w] != p.Part[v] {
				ext[v]++
			}
		}
	}
	return ext
}

// move puts v in part to, keeping ext, the external degrees, current.
func move(g *Graph, p *Partition, ext []int32, v int, to int32) {
	from := p.Part[v]
	p.Part[v] = to
	ext[v] = 0
	for _, w := range g.Neighbors(v) {
		switch p.Part[w] {
		case from:
			ext[w]++
		case to:
			ext[w]--
		}
		if p.Part[w] != to {
			ext[v]++
		}
	}
}

// refine performs greedy boundary-vertex moves (an FM-lite heuristic):
// for each boundary vertex, compute the gain of moving it to the
// neighboring part with most connections; apply positive-gain moves that
// keep all part sizes within maxImb of the average. Passes repeat until
// no move applies or the pass budget is exhausted. ext holds the external
// degrees, which the moves keep current.
func refine(g *Graph, p *Partition, ext []int32, passes int) {
	n := g.N
	k := p.K
	size := make([]int, k)
	for _, d := range p.Part {
		size[d]++
	}
	maxSize := (n*105)/(100*k) + 1 // 5% imbalance cap
	minSize := n / (k * 2)         // never empty a part below half-average
	conn := make([]int, k)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			home := int(p.Part[v])
			if ext[v] == 0 || size[home] <= minSize {
				continue
			}
			// connections per part
			for c := range conn {
				conn[c] = 0
			}
			for _, w := range g.Neighbors(v) {
				conn[p.Part[w]]++
			}
			best, bestGain := home, 0
			for c := 0; c < k; c++ {
				if c == home || size[c] >= maxSize {
					continue
				}
				gain := conn[c] - conn[home]
				if gain > bestGain || (gain == bestGain && gain > 0 && size[c] < size[best]) {
					best, bestGain = c, gain
				}
			}
			if best != home && bestGain > 0 {
				move(g, p, ext, v, int32(best))
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

// balanceParts forcibly moves boundary vertices out of oversized parts
// into adjacent under-capacity parts until every part is within 5% of the
// average, preferring moves with the least cut damage. It is the
// balance-enforcement half of FM refinement. ext holds the external
// degrees, which the moves keep current.
func balanceParts(g *Graph, p *Partition, ext []int32) {
	n := g.N
	k := p.K
	size := make([]int, k)
	for _, d := range p.Part {
		size[d]++
	}
	maxSize := (n*105)/(100*k) + 1
	conn := make([]int, k)
	for iter := 0; iter < n; iter++ {
		// most oversized part
		over := -1
		for c := 0; c < k; c++ {
			if size[c] > maxSize && (over == -1 || size[c] > size[over]) {
				over = c
			}
		}
		if over == -1 {
			return
		}
		// best boundary vertex of `over` to evict: maximize
		// conn(dest) - conn(over) over destinations with room.
		bestV, bestD, bestGain := -1, -1, -(1 << 30)
		for v := 0; v < n; v++ {
			if int(p.Part[v]) != over || ext[v] == 0 {
				continue
			}
			for c := range conn {
				conn[c] = 0
			}
			for _, w := range g.Neighbors(v) {
				conn[p.Part[w]]++
			}
			for c := 0; c < k; c++ {
				if c == over || size[c] >= maxSize || conn[c] == 0 {
					continue
				}
				gain := conn[c] - conn[over]
				if gain > bestGain || (gain == bestGain && bestD >= 0 && size[c] < size[bestD]) {
					bestV, bestD, bestGain = v, c, gain
				}
			}
		}
		if bestV == -1 {
			// no adjacent destination with room: move any boundary vertex
			// to the globally smallest part to guarantee progress.
			small := 0
			for c := 1; c < k; c++ {
				if size[c] < size[small] {
					small = c
				}
			}
			for v := 0; v < n && bestV == -1; v++ {
				if int(p.Part[v]) == over {
					bestV, bestD = v, small
				}
			}
			if bestV == -1 {
				return
			}
		}
		move(g, p, ext, bestV, int32(bestD))
		size[over]--
		size[bestD]++
	}
}

// EdgeCut returns the number of graph edges whose endpoints lie in
// different parts — the communication proxy METIS minimizes.
func EdgeCut(g *Graph, p *Partition) int {
	cut := 0
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v && p.Part[v] != p.Part[w] {
				cut++
			}
		}
	}
	return cut
}

// Imbalance returns max part size divided by the average part size.
func (p *Partition) Imbalance() float64 {
	if len(p.Part) == 0 {
		return 1
	}
	size := make([]int, p.K)
	for _, d := range p.Part {
		size[d]++
	}
	max := 0
	for _, s := range size {
		if s > max {
			max = s
		}
	}
	avg := float64(len(p.Part)) / float64(p.K)
	return float64(max) / avg
}

// Sizes returns the number of vertices in each part.
func (p *Partition) Sizes() []int {
	size := make([]int, p.K)
	for _, d := range p.Part {
		size[d]++
	}
	return size
}

// Order returns a permutation (perm[new] = old) that groups each part's
// vertices contiguously, preserving relative order inside a part, plus
// the resulting part boundaries (k+1 offsets). Applying this permutation
// to the matrix yields the block-row layout the distributed runtime
// wants: device d owns rows bounds[d]:bounds[d+1]. It is one counting
// sort of the vertices by part.
func (p *Partition) Order() (perm []int, bounds []int) {
	bounds = make([]int, p.K+1)
	for _, d := range p.Part {
		bounds[d+1]++
	}
	for d := 0; d < p.K; d++ {
		bounds[d+1] += bounds[d]
	}
	next := slices.Clone(bounds[:p.K])
	perm = make([]int, len(p.Part))
	for v, d := range p.Part {
		perm[next[d]] = v
		next[d]++
	}
	return perm, bounds
}
