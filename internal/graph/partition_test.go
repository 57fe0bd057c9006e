package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cagmres/internal/sparse"
)

func TestKWayCoversAndBalances(t *testing.T) {
	a := grid2D(20, 20)
	g := FromMatrix(a)
	for _, k := range []int{2, 3, 4, 7} {
		p := KWay(g, k, 1)
		if p.K != k || len(p.Part) != g.N {
			t.Fatalf("k=%d: bad shape", k)
		}
		sizes := p.Sizes()
		for d, s := range sizes {
			if s == 0 {
				t.Fatalf("k=%d: part %d empty", k, d)
			}
		}
		if imb := p.Imbalance(); imb > 1.25 {
			t.Fatalf("k=%d: imbalance %v", k, imb)
		}
	}
}

func TestKWayBeatsRandomCut(t *testing.T) {
	// On a grid, the k-way partitioner must produce a dramatically
	// smaller edge cut than a random assignment.
	a := grid2D(30, 30)
	g := FromMatrix(a)
	k := 3
	p := KWay(g, k, 42)
	cut := EdgeCut(g, p)

	rng := rand.New(rand.NewSource(99))
	randP := &Partition{K: k, Part: make([]int32, g.N)}
	for i := range randP.Part {
		randP.Part[i] = int32(rng.Intn(k))
	}
	randCut := EdgeCut(g, randP)
	if cut*4 > randCut {
		t.Fatalf("KWay cut %d not clearly better than random %d", cut, randCut)
	}
	// A 30x30 grid split into 3 slabs has cut ~30-60; allow slack but
	// require the same order of magnitude.
	if cut > 200 {
		t.Fatalf("KWay cut %d too large for a 30x30 grid", cut)
	}
}

func TestKWaySinglePart(t *testing.T) {
	g := FromMatrix(grid2D(5, 5))
	p := KWay(g, 1, 0)
	for _, d := range p.Part {
		if d != 0 {
			t.Fatal("k=1 must place everything in part 0")
		}
	}
	if EdgeCut(g, p) != 0 {
		t.Fatal("k=1 cut must be 0")
	}
}

func TestKWayDisconnected(t *testing.T) {
	// Two disjoint grids; partitioner must still cover everything.
	nx, ny := 6, 6
	a := grid2D(nx, ny)
	n := nx * ny
	entries := make([]sparse.Coord, 0)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: vals[k]})
			entries = append(entries, sparse.Coord{Row: i + n, Col: j + n, Val: vals[k]})
		}
	}
	g := FromMatrix(sparse.FromCoords(2*n, 2*n, entries))
	p := KWay(g, 3, 5)
	sizes := p.Sizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 2*n {
		t.Fatalf("sizes %v do not cover %d vertices", sizes, 2*n)
	}
}

func TestPartitionOrder(t *testing.T) {
	p := &Partition{K: 2, Part: []int32{1, 0, 1, 0, 0}}
	perm, bounds := p.Order()
	if !IsPermutation(perm, 5) {
		t.Fatalf("perm = %v", perm)
	}
	if bounds[0] != 0 || bounds[1] != 3 || bounds[2] != 5 {
		t.Fatalf("bounds = %v", bounds)
	}
	// first 3 entries are part-0 vertices in order
	want := []int{1, 3, 4, 0, 2}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestPartitionOrderQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		k := 1 + rng.Intn(4)
		p := &Partition{K: k, Part: make([]int32, n)}
		for i := range p.Part {
			p.Part[i] = int32(rng.Intn(k))
		}
		perm, bounds := p.Order()
		if !IsPermutation(perm, n) {
			return false
		}
		// every vertex inside bounds[d]:bounds[d+1] belongs to part d
		for d := 0; d < k; d++ {
			for i := bounds[d]; i < bounds[d+1]; i++ {
				if int(p.Part[perm[i]]) != d {
					return false
				}
			}
		}
		return bounds[k] == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCutPath(t *testing.T) {
	g := FromMatrix(pathMatrix(10))
	p := &Partition{K: 2, Part: []int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}}
	if cut := EdgeCut(g, p); cut != 1 {
		t.Fatalf("path cut = %d, want 1", cut)
	}
}

func TestImbalancePerfect(t *testing.T) {
	p := &Partition{K: 3, Part: []int32{0, 0, 0, 1, 1, 1, 2, 2, 2}}
	if imb := p.Imbalance(); imb != 1 {
		t.Fatalf("imbalance = %v", imb)
	}
}
