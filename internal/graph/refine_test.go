package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cagmres/internal/matgen"
)

// referenceRefine is refine as first written, rescanning every vertex's
// neighbours to find the boundary. It performs greedy boundary-vertex moves (an FM-lite heuristic):
// for each boundary vertex, compute the gain of moving it to the
// neighboring part with most connections; apply positive-gain moves that
// keep all part sizes within maxImb of the average. Passes repeat until
// no move applies or the pass budget is exhausted.
func referenceRefine(g *Graph, p *Partition, passes int) {
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
				if int(p.Part[w]) != home {
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
				p.Part[v] = int32(best)
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

// referenceBalanceParts is balanceParts as first written, rescanning all
// n vertices' neighbours for every move. It forcibly moves boundary vertices out of oversized parts
// into adjacent under-capacity parts until every part is within 5% of the
// average, preferring moves with the least cut damage. It is the
// balance-enforcement half of FM refinement.
func referenceBalanceParts(g *Graph, p *Partition) {
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
			if int(p.Part[v]) != over {
				continue
			}
			for c := range conn {
				conn[c] = 0
			}
			boundary := false
			for _, w := range g.Neighbors(v) {
				conn[p.Part[w]]++
				if int(p.Part[w]) != over {
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
				if int(p.Part[v]) == over {
					bestV, bestD = v, small
				}
			}
			if bestV == -1 {
				return
			}
		}
		p.Part[bestV] = int32(bestD)
		size[over]--
		size[bestD]++
	}
}

// TestKWayMatchesReference: on the four generators and k = 2..4 — and
// cant at k = 4, where balanceParts makes many moves — the partition
// KWay returns is the one the reference balance and refinement make of
// the same grown parts, and the external degrees the moves kept are the
// ones a recount finds.
func TestKWayMatchesReference(t *testing.T) {
	mats := matgen.PaperSet(0.01)
	cant, err := matgen.ByName("cant", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		mat *matgen.Matrix
		k   int
	}
	var cases []tc
	for _, m := range mats {
		for k := 2; k <= 4; k++ {
			cases = append(cases, tc{m, k})
		}
	}
	cases = append(cases, tc{cant, 4})
	for _, c := range cases {
		name := fmt.Sprintf("%s/k=%d", c.mat.Name, c.k)
		g := FromMatrix(c.mat.A)
		const seed = 1
		want := grow(g, c.k, rand.New(rand.NewSource(seed)))
		referenceBalanceParts(g, want)
		referenceRefine(g, want, 8)
		if got := KWay(g, c.k, seed); !slices.Equal(got.Part, want.Part) {
			t.Errorf("%s: KWay differs from the reference", name)
		}
		p := grow(g, c.k, rand.New(rand.NewSource(seed)))
		ext := externalDegrees(g, p)
		balanceParts(g, p, ext)
		refine(g, p, ext, 8)
		if !slices.Equal(ext, externalDegrees(g, p)) {
			t.Errorf("%s: the moves left stale external degrees", name)
		}
	}
}
