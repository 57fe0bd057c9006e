package graph

import (
	"fmt"
	"math/rand"
)

// Partition assigns each vertex to one of K parts. It is the stand-in for
// METIS k-way partitioning in the paper's "KWY" configurations: the goal
// is to minimize the edge cut (which becomes inter-GPU communication
// volume) while balancing part sizes (which balances SpMV load).
type Partition struct {
	K    int
	Part []int // vertex -> part
}

// KWay computes a k-way partition by greedy graph growing from spread
// seeds followed by Fiduccia-Mattheyses-style boundary refinement. seed
// controls the deterministic pseudo-random tie-breaking.
func KWay(g *Graph, k int, seed int64) *Partition {
	if k < 1 {
		panic(fmt.Sprintf("graph: KWay with k=%d", k))
	}
	n := g.N
	p := &Partition{K: k, Part: make([]int, n)}
	if k == 1 || n == 0 {
		return p
	}
	rng := rand.New(rand.NewSource(seed))

	// --- Phase 1: greedy growing. Pick k seeds far apart (BFS sampling),
	// then grow all parts simultaneously, always extending the currently
	// smallest part from its frontier.
	for i := range p.Part {
		p.Part[i] = -1
	}
	seeds := spreadSeeds(g, k, rng)
	size := make([]int, k)
	frontiers := make([][]int, k) // FIFO queues
	heads := make([]int, k)
	for d, s := range seeds {
		p.Part[s] = d
		size[d] = 1
		frontiers[d] = append(frontiers[d], s)
	}
	assigned := k
	for assigned < n {
		// smallest growable part (FIFO growth keeps regions compact)
		d := -1
		for c := 0; c < k; c++ {
			if heads[c] >= len(frontiers[c]) {
				continue
			}
			if d == -1 || size[c] < size[d] {
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
				p.Part[v] = dMin
				size[dMin]++
				frontiers[dMin] = append(frontiers[dMin], v)
				assigned++
			}
			continue
		}
		// claim one unassigned neighbor of the frontier head
		claimed := false
		for heads[d] < len(frontiers[d]) && !claimed {
			f := frontiers[d][heads[d]]
			for _, w := range g.Neighbors(f) {
				if p.Part[w] == -1 {
					p.Part[w] = d
					size[d]++
					assigned++
					frontiers[d] = append(frontiers[d], w)
					claimed = true
					break
				}
			}
			if !claimed {
				heads[d]++ // f exhausted
			}
		}
	}

	// --- Phase 2: boundary refinement. A few passes of greedy moves that
	// reduce the edge cut without violating a balance cap, preceded by a
	// forced rebalancing of any oversized part.
	balanceParts(g, p)
	refine(g, p, 8)
	return p
}

// spreadSeeds picks k seed vertices that are far apart: the first is a
// pseudo-peripheral vertex, each next seed maximizes its BFS distance to
// all previous seeds.
func spreadSeeds(g *Graph, k int, rng *rand.Rand) []int {
	n := g.N
	sc := newBFSScratch(n)
	seeds := make([]int, 0, k)
	first := g.pseudoPeripheral(sc, rng.Intn(n))
	seeds = append(seeds, first)
	level := sc.level
	for len(seeds) < k {
		g.bfs(level, sc.queue, seeds)
		best, bestLvl := -1, -1
		for v := 0; v < n; v++ {
			if level[v] > bestLvl {
				best, bestLvl = v, level[v]
			}
		}
		if best < 0 || containsInt(seeds, best) {
			// graph smaller than k or disconnected remainder: fall back
			// to any unused vertex
			best = -1
			for v := 0; v < n; v++ {
				if !containsInt(seeds, v) {
					best = v
					break
				}
			}
			if best < 0 {
				best = rng.Intn(n)
			}
		}
		seeds = append(seeds, best)
	}
	return seeds
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// refine performs greedy boundary-vertex moves (an FM-lite heuristic):
// for each boundary vertex, compute the gain of moving it to the
// neighboring part with most connections; apply positive-gain moves that
// keep all part sizes within maxImb of the average. Passes repeat until
// no move applies or the pass budget is exhausted.
func refine(g *Graph, p *Partition, passes int) {
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
			home := p.Part[v]
			if size[home] <= minSize {
				continue
			}
			// connections per part
			for c := range conn {
				conn[c] = 0
			}
			boundary := false
			for _, w := range g.Neighbors(v) {
				conn[p.Part[w]]++
				if p.Part[w] != home {
					boundary = true
				}
			}
			if !boundary {
				continue
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

// balanceParts forcibly moves boundary vertices out of oversized parts
// into adjacent under-capacity parts until every part is within 5% of the
// average, preferring moves with the least cut damage. It is the
// balance-enforcement half of FM refinement.
func balanceParts(g *Graph, p *Partition) {
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
			if p.Part[v] != over {
				continue
			}
			for c := range conn {
				conn[c] = 0
			}
			boundary := false
			for _, w := range g.Neighbors(v) {
				conn[p.Part[w]]++
				if p.Part[w] != over {
					boundary = true
				}
			}
			if !boundary {
				continue
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
				if p.Part[v] == over {
					bestV, bestD = v, small
				}
			}
			if bestV == -1 {
				return
			}
		}
		p.Part[bestV] = bestD
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
			if w > v && p.Part[v] != p.Part[w] {
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
// wants: device d owns rows bounds[d]:bounds[d+1].
func (p *Partition) Order() (perm []int, bounds []int) {
	n := len(p.Part)
	perm = make([]int, 0, n)
	bounds = make([]int, p.K+1)
	for d := 0; d < p.K; d++ {
		for v := 0; v < n; v++ {
			if p.Part[v] == d {
				perm = append(perm, v)
			}
		}
		bounds[d+1] = len(perm)
	}
	return perm, bounds
}
