package graph

import (
	"math/rand"
	"slices"
	"testing"

	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

func TestColumnNetHypergraphStructure(t *testing.T) {
	// 3x3 matrix: column 0 touched by rows {0,1}, column 1 by {1},
	// column 2 by {0,2}.
	a := sparse.FromCoords(3, 3, []sparse.Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 2, Val: 1},
	})
	h := ColumnNetHypergraph(a)
	if h.N != 3 || h.Nets != 3 {
		t.Fatalf("shape %d/%d", h.N, h.Nets)
	}
	net0 := h.NetVert[h.NetPtr[0]:h.NetPtr[1]]
	if len(net0) != 2 || net0[0] != 0 || net0[1] != 1 {
		t.Fatalf("net 0 = %v", net0)
	}
	net1 := h.NetVert[h.NetPtr[1]:h.NetPtr[2]]
	if len(net1) != 1 || net1[0] != 1 {
		t.Fatalf("net 1 = %v", net1)
	}
	// Transpose is exactly the row pattern.
	if h.VertNet[h.VertPtr[2]] != 2 {
		t.Fatal("vertex-net transpose wrong")
	}
}

func TestConnectivityMetricExact(t *testing.T) {
	// Path matrix over 2 parts split in the middle: columns 4 and 5 (the
	// boundary columns of an n=10 tridiagonal split 5|5) each span both
	// parts -> metric 2. Matches the exact SpMV volume: each side ships
	// one element.
	a := pathMatrix(10)
	h := ColumnNetHypergraph(a)
	p := &Partition{K: 2, Part: []int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}}
	if got := h.Connectivity(p); got != 2 {
		t.Fatalf("connectivity = %d, want 2", got)
	}
	// One part: no communication.
	if got := h.Connectivity(&Partition{K: 1, Part: make([]int32, 10)}); got != 0 {
		t.Fatalf("k=1 connectivity = %d", got)
	}
}

// exactSpMVVolume counts, for every part, the distinct remote columns its
// rows reference — the true number of vector elements a distributed SpMV
// must ship. This is the quantity the hypergraph connectivity metric is
// supposed to equal (and the graph edge cut only approximates).
func exactSpMVVolume(a *sparse.CSR, p *Partition) int {
	total := 0
	for d := 0; d < p.K; d++ {
		needed := map[int]bool{}
		for i := 0; i < a.Rows; i++ {
			if int(p.Part[i]) != d {
				continue
			}
			cols, _ := a.Row(i)
			for _, j := range cols {
				if int(p.Part[j]) != d {
					needed[j] = true
				}
			}
		}
		total += len(needed)
	}
	return total
}

func TestConnectivityEqualsExactVolume(t *testing.T) {
	// A star: center row couples with all leaves, leaves split across
	// two parts. The hypergraph metric equals the exact SpMV volume (6)
	// where the edge cut (5) does not — the known miscounting of the
	// graph model that motivates hypergraph partitioning.
	n := 10
	entries := []sparse.Coord{{Row: 0, Col: 0, Val: 1}}
	for i := 1; i < n; i++ {
		entries = append(entries,
			sparse.Coord{Row: 0, Col: i, Val: 1},
			sparse.Coord{Row: i, Col: 0, Val: 1},
			sparse.Coord{Row: i, Col: i, Val: 1})
	}
	a := sparse.FromCoords(n, n, entries)
	p := &Partition{K: 2, Part: make([]int32, n)}
	for i := n / 2; i < n; i++ {
		p.Part[i] = 1
	}
	h := ColumnNetHypergraph(a)
	conn := h.Connectivity(p)
	if exact := exactSpMVVolume(a, p); conn != exact {
		t.Fatalf("connectivity %d != exact volume %d", conn, exact)
	}
	if cut := EdgeCut(FromMatrix(a), p); cut == conn {
		t.Fatalf("edge cut %d should miscount the star's volume %d", cut, conn)
	}
}

func TestConnectivityEqualsExactVolumeRandomized(t *testing.T) {
	// Property: on arbitrary matrices and partitions the metric equals
	// the exact volume.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(60)
		entries := make([]sparse.Coord, 0, n*4)
		for i := 0; i < n; i++ {
			entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 1})
			for d := 0; d < 3; d++ {
				entries = append(entries, sparse.Coord{Row: i, Col: rng.Intn(n), Val: 1})
			}
		}
		a := sparse.FromCoords(n, n, entries)
		k := 2 + rng.Intn(3)
		p := &Partition{K: k, Part: make([]int32, n)}
		for i := range p.Part {
			p.Part[i] = int32(rng.Intn(k))
		}
		h := ColumnNetHypergraph(a)
		if got, want := h.Connectivity(p), exactSpMVVolume(a, p); got != want {
			t.Fatalf("trial %d: connectivity %d != exact %d", trial, got, want)
		}
	}
}

func TestPartitionHypergraphImprovesConnectivity(t *testing.T) {
	a := grid2D(24, 24)
	k := 3
	g := FromMatrix(a)
	graphPart := KWay(g, k, 7)
	h := ColumnNetHypergraph(a)
	before := h.Connectivity(graphPart)

	hp := PartitionHypergraph(a, k, 7)
	after := h.Connectivity(hp)
	if after > before {
		t.Fatalf("hypergraph refinement worsened connectivity: %d -> %d", before, after)
	}
	// Balance still respected.
	if imb := hp.Imbalance(); imb > 1.15 {
		t.Fatalf("imbalance %v", imb)
	}
	// Covers all vertices.
	sizes := hp.Sizes()
	total := 0
	for _, s := range sizes {
		if s == 0 {
			t.Fatal("empty part")
		}
		total += s
	}
	if total != a.Rows {
		t.Fatalf("cover %d of %d", total, a.Rows)
	}
}

func TestPartitionHypergraphBeatsRandom(t *testing.T) {
	a := grid2D(20, 20)
	h := ColumnNetHypergraph(a)
	hp := PartitionHypergraph(a, 3, 1)
	rng := rand.New(rand.NewSource(9))
	randP := &Partition{K: 3, Part: make([]int32, a.Rows)}
	for i := range randP.Part {
		randP.Part[i] = int32(rng.Intn(3))
	}
	if h.Connectivity(hp)*4 > h.Connectivity(randP) {
		t.Fatalf("hypergraph partition %d not clearly below random %d",
			h.Connectivity(hp), h.Connectivity(randP))
	}
}

func TestPartitionHypergraphSinglePart(t *testing.T) {
	a := grid2D(6, 6)
	p := PartitionHypergraph(a, 1, 0)
	for _, d := range p.Part {
		if d != 0 {
			t.Fatal("k=1 must be all part 0")
		}
	}
}

// TestPartitionHypergraphDeterministic: a partition is a function of its
// arguments. The refinement once kept the first of equal-gain moves in
// map iteration order, and repeats of one call differed.
func TestPartitionHypergraphDeterministic(t *testing.T) {
	for _, m := range matgen.PaperSet(0.002) {
		if m.Name != "G3_circuit" && m.Name != "nlpkkt120" {
			continue
		}
		first := PartitionHypergraph(m.A, 3, 1)
		for rep := 1; rep < 20; rep++ {
			if got := PartitionHypergraph(m.A, 3, 1); !slices.Equal(got.Part, first.Part) {
				t.Fatalf("%s: repeat %d of PartitionHypergraph(A, 3, 1) differs from the first", m.Name, rep)
			}
		}
	}
}
