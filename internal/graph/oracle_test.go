package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

// referenceFromMatrix is FromMatrix as first written, on int indices:
// every entry of A and A' laid out per vertex, then each list sorted and
// deduplicated. FromMatrix must return its Ptr and Adj exactly.
func referenceFromMatrix(a *sparse.CSR) (ptr, adj []int) {
	n := a.Rows
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				deg[i]++
				deg[j]++
			}
		}
	}
	ptr = make([]int, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + deg[i]
	}
	adj = make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				adj[next[i]] = j
				next[i]++
				adj[next[j]] = i
				next[j]++
			}
		}
	}
	outPtr := make([]int, n+1)
	var out []int
	for i := 0; i < n; i++ {
		lst := adj[ptr[i]:ptr[i+1]]
		sort.Ints(lst)
		for k, v := range lst {
			if k == 0 || lst[k-1] != v {
				out = append(out, v)
			}
		}
		outPtr[i+1] = len(out)
	}
	return outPtr, out
}

// referenceSpreadSeeds is spreadSeeds as first written: a fresh
// pseudo-peripheral iteration for the first seed, then one full
// multi-source search from all seeds so far per further seed.
func referenceSpreadSeeds(g *Graph, k int, rng *rand.Rand) []int {
	n := g.N
	seeds := []int{referencePseudoPeripheral(g, rng.Intn(n))}
	for len(seeds) < k {
		level, _ := bfsLevels(g, seeds...)
		best, bestLvl := -1, -1
		for v := 0; v < n; v++ {
			if level[v] > bestLvl {
				best, bestLvl = v, level[v]
			}
		}
		if best < 0 || slices.Contains(seeds, best) {
			best = -1
			for v := 0; v < n; v++ {
				if !slices.Contains(seeds, v) {
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

// referenceGrow is grow as first written: a growing slice per part's
// frontier, and each claim rescans the frontier head's neighbours from
// the first.
func referenceGrow(g *Graph, k int, rng *rand.Rand) *Partition {
	n := g.N
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	seeds := referenceSpreadSeeds(g, k, rng)
	size := make([]int, k)
	frontiers := make([][]int, k)
	heads := make([]int, k)
	for d, s := range seeds {
		part[s] = d
		size[d] = 1
		frontiers[d] = append(frontiers[d], s)
	}
	assigned := k
	for assigned < n {
		d := -1
		for c := 0; c < k; c++ {
			if heads[c] < len(frontiers[c]) && (d == -1 || size[c] < size[d]) {
				d = c
			}
		}
		if d == -1 {
			for v := 0; v < n; v++ {
				if part[v] != -1 {
					continue
				}
				dMin := 0
				for c := 1; c < k; c++ {
					if size[c] < size[dMin] {
						dMin = c
					}
				}
				part[v] = dMin
				size[dMin]++
				frontiers[dMin] = append(frontiers[dMin], v)
				assigned++
			}
			continue
		}
		claimed := false
		for heads[d] < len(frontiers[d]) && !claimed {
			for _, w := range g.Neighbors(frontiers[d][heads[d]]) {
				if part[w] == -1 {
					part[w] = d
					size[d]++
					assigned++
					frontiers[d] = append(frontiers[d], int(w))
					claimed = true
					break
				}
			}
			if !claimed {
				heads[d]++
			}
		}
	}
	p := &Partition{K: k, Part: make([]int32, n)}
	for v, d := range part {
		p.Part[v] = int32(d)
	}
	return p
}

// referenceOrder is Order as first written: one scan of the vertices per
// part.
func referenceOrder(p *Partition) (perm, bounds []int) {
	bounds = make([]int, p.K+1)
	for d := 0; d < p.K; d++ {
		for v, pd := range p.Part {
			if int(pd) == d {
				perm = append(perm, v)
			}
		}
		bounds[d+1] = len(perm)
	}
	return perm, bounds
}

// randomPattern builds an n x n pattern with about perRow off-diagonal
// entries a row, a diagonal when diag is set, every entry mirrored when
// symmetric is, and empty rows where rng says so.
func randomPattern(rng *rand.Rand, n, perRow int, symmetric, diag bool) *sparse.CSR {
	var entries []sparse.Coord
	for i := 0; i < n; i++ {
		if diag {
			entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 1})
		}
		if rng.Intn(5) == 0 {
			continue // an empty row (or one holding only its diagonal)
		}
		for e := 0; e < perRow; e++ {
			j := rng.Intn(n)
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: 1})
			if symmetric {
				entries = append(entries, sparse.Coord{Row: j, Col: i, Val: 1})
			}
		}
	}
	return sparse.FromCoords(n, n, entries)
}

// oraclePatterns is the seeded set of patterns the oracles are checked
// on: symmetric and not, with and without a diagonal, sparse enough to
// fall apart into components, at n in {0, 1, 2} and up to a few hundred,
// plus the four generators and a shuffled union of components.
func oraclePatterns() map[string]*sparse.CSR {
	rng := rand.New(rand.NewSource(11))
	pats := map[string]*sparse.CSR{"disconnected": disconnected(), "diagonal": diagonal(7)}
	for _, n := range []int{0, 1, 2, 3, 9, 40, 300} {
		for _, perRow := range []int{1, 3} {
			for _, sym := range []bool{false, true} {
				for _, diag := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/perRow=%d/sym=%v/diag=%v", n, perRow, sym, diag)
					pats[name] = randomPattern(rng, n, perRow, sym, diag)
				}
			}
		}
	}
	for _, m := range matgen.PaperSet(0.002) {
		pats[m.Name] = m.A
	}
	return pats
}

// equalInts reports whether an int32 slice holds the int slice's values.
func equalInts(got []int32, want []int) bool {
	return slices.EqualFunc(got, want, func(g int32, w int) bool { return int(g) == w })
}

// TestFromMatrixMatchesReference: on every oracle pattern — the
// symmetric ones through the fast path, the others through the
// sort-and-dedupe one — FromMatrix's graph is the reference's.
func TestFromMatrixMatchesReference(t *testing.T) {
	for name, a := range oraclePatterns() {
		g := FromMatrix(a)
		ptr, adj := referenceFromMatrix(a)
		if g.N != a.Rows || !slices.Equal(g.Ptr, ptr) || !equalInts(g.Adj, adj) {
			t.Errorf("%s: FromMatrix differs from the reference", name)
		}
	}
}

// TestGrowMatchesReference: on every oracle pattern with a vertex, for
// k from 1 to past n and three seeds, the seeds spreadSeeds picks and
// the parts grow grows are the reference's — disconnected patterns reach
// the fallback seed and the leftover assignment — and KWay, run on the
// same grown parts, is the reference balance and refinement of them.
func TestGrowMatchesReference(t *testing.T) {
	for name, a := range oraclePatterns() {
		g := FromMatrix(a)
		if g.N == 0 {
			if p := KWay(g, 3, 1); len(p.Part) != 0 {
				t.Errorf("%s: KWay of an empty graph has %d vertices", name, len(p.Part))
			}
			continue
		}
		for _, k := range []int{1, 2, 3, 5} {
			for _, seed := range []int64{1, 2, 7} {
				tag := fmt.Sprintf("%s/k=%d/seed=%d", name, k, seed)
				got := spreadSeeds(g, k, rand.New(rand.NewSource(seed)), newBFSScratch(g.N))
				if want := referenceSpreadSeeds(g, k, rand.New(rand.NewSource(seed))); !equalInts(got, want) {
					t.Fatalf("%s: seeds %v, want %v", tag, got, want)
				}
				want := referenceGrow(g, k, rand.New(rand.NewSource(seed)))
				if p := grow(g, k, rand.New(rand.NewSource(seed))); !slices.Equal(p.Part, want.Part) {
					t.Fatalf("%s: grow differs from the reference", tag)
				}
				if k == 1 {
					continue
				}
				referenceBalanceParts(g, want)
				referenceRefine(g, want, 8)
				if p := KWay(g, k, seed); !slices.Equal(p.Part, want.Part) {
					t.Fatalf("%s: KWay differs from the reference", tag)
				}
			}
		}
	}
}

// TestOrderMatchesPerPartScans: over random part vectors, empty parts
// and k past n included, Order's counting sort returns the permutation
// and bounds of one scan per part.
func TestOrderMatchesPerPartScans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n, k := rng.Intn(60), 1+rng.Intn(6)
		p := &Partition{K: k, Part: make([]int32, n)}
		for v := range p.Part {
			p.Part[v] = int32(rng.Intn(k))
		}
		perm, bounds := p.Order()
		wantPerm, wantBounds := referenceOrder(p)
		if !slices.Equal(perm, wantPerm) || !slices.Equal(bounds, wantBounds) {
			t.Fatalf("n=%d k=%d part=%v: Order = %v %v, want %v %v", n, k, p.Part, perm, bounds, wantPerm, wantBounds)
		}
	}
}

// FuzzFromMatrix holds FromMatrix to its reference on arbitrary
// patterns: the first byte picks n and the form, the rest are (row,
// column) pairs. Odd forms are mirrored and assembled, so they take the
// symmetric fast path; even ones are laid into the CSR in byte order,
// unsorted and with duplicates, the input the fast path must refuse.
// An inline MatrixMarket body reaches FromMatrix through the server's
// k-way default.
func FuzzFromMatrix(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 1, 2})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 2})
	f.Add([]byte{7, 5, 1, 1, 5, 3, 3, 0, 4, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]>>1) % 33
		pairs := data[1:]
		var a *sparse.CSR
		if data[0]&1 == 1 {
			var entries []sparse.Coord
			for i := 0; n > 0 && i+1 < len(pairs); i += 2 {
				r, c := int(pairs[i])%n, int(pairs[i+1])%n
				entries = append(entries, sparse.Coord{Row: r, Col: c, Val: 1}, sparse.Coord{Row: c, Col: r, Val: 1})
			}
			a = sparse.FromCoords(n, n, entries)
			if _, ok := symmetricPattern(a); !ok {
				t.Fatal("a mirrored, assembled pattern is not taken for symmetric")
			}
		} else {
			a = &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
			for r := 0; r < n; r++ {
				for i := 0; i+1 < len(pairs); i += 2 {
					if int(pairs[i])%n == r {
						a.ColIdx = append(a.ColIdx, int(pairs[i+1])%n)
						a.Val = append(a.Val, 1)
					}
				}
				a.RowPtr[r+1] = len(a.ColIdx)
			}
		}
		g := FromMatrix(a)
		ptr, adj := referenceFromMatrix(a)
		if !slices.Equal(g.Ptr, ptr) || !equalInts(g.Adj, adj) {
			t.Fatalf("n=%d pairs=%v: FromMatrix %v %v, want %v %v", n, pairs, g.Ptr, g.Adj, ptr, adj)
		}
	})
}
