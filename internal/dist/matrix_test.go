package dist

import (
	"math/rand"
	"slices"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/sparse"
)

// pathN builds an n-vertex tridiagonal matrix (1D Laplacian).
func pathN(n int) *sparse.CSR {
	entries := make([]sparse.Coord, 0, 3*n)
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 2})
		if i > 0 {
			entries = append(entries, sparse.Coord{Row: i, Col: i - 1, Val: -1})
		}
		if i+1 < n {
			entries = append(entries, sparse.Coord{Row: i, Col: i + 1, Val: -1})
		}
	}
	return sparse.FromCoords(n, n, entries)
}

// randSquare builds a random nonsymmetric sparse matrix with unit-ish
// diagonal dominance.
func randSquare(rng *rand.Rand, n, deg int) *sparse.CSR {
	entries := make([]sparse.Coord, 0, n*(deg+1))
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 4 + rng.Float64()})
		for d := 0; d < deg; d++ {
			entries = append(entries, sparse.Coord{Row: i, Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
	}
	return sparse.FromCoords(n, n, entries)
}

func TestHaloTridiagonal(t *testing.T) {
	// 12-vertex path over 3 devices, s=2. Device 1 owns rows 4-7; its
	// distance-1 halo is {3, 8}, distance-2 halo {2, 9}.
	a := pathN(12)
	ctx := gpu.NewContext(3, gpu.M2090())
	m := Distribute(ctx, a, Uniform(12, 3), 2)
	dm := m.Dev[1]
	if dm.NOwn != 4 {
		t.Fatalf("NOwn = %d", dm.NOwn)
	}
	wantHalo := []int32{3, 8, 2, 9}
	if len(dm.Halo) != 4 {
		t.Fatalf("halo = %v", dm.Halo)
	}
	for i, g := range wantHalo {
		if dm.Halo[i] != g {
			t.Fatalf("halo = %v, want %v", dm.Halo, wantHalo)
		}
	}
	if got, want := haloDist(dm), []int{1, 1, 2, 2}; !slices.Equal(got, want) {
		t.Fatalf("halo distances = %v, want %v", got, want)
	}
	// RowsAtDist: 4 owned, +2 at dist<=1, +2 at dist<=2.
	if dm.RowsAtDist[0] != 4 || dm.RowsAtDist[1] != 6 || dm.RowsAtDist[2] != 8 {
		t.Fatalf("RowsAtDist = %v", dm.RowsAtDist)
	}
	// Ext holds rows with distance <= 1 (s-1 = 1): 6 rows.
	if dm.Ext.Rows != 6 {
		t.Fatalf("Ext rows = %d", dm.Ext.Rows)
	}
}

func TestHaloEdgeDevices(t *testing.T) {
	a := pathN(12)
	ctx := gpu.NewContext(3, gpu.M2090())
	m := Distribute(ctx, a, Uniform(12, 3), 2)
	// Device 0 owns 0-3: halo {4 (d1), 5 (d2)}.
	dm := m.Dev[0]
	if len(dm.Halo) != 2 || dm.Halo[0] != 4 || dm.Halo[1] != 5 {
		t.Fatalf("dev0 halo = %v", dm.Halo)
	}
	// Device 2 owns 8-11: halo {7, 6}. sorted by dist: 7 (d1), 6 (d2).
	dm = m.Dev[2]
	if len(dm.Halo) != 2 || dm.Halo[0] != 7 || dm.Halo[1] != 6 {
		t.Fatalf("dev2 halo = %v", dm.Halo)
	}
}

func TestSendSets(t *testing.T) {
	a := pathN(12)
	ctx := gpu.NewContext(3, gpu.M2090())
	m := Distribute(ctx, a, Uniform(12, 3), 2)
	// Device 1 owns 4-7. Needed by dev0: {4,5}; by dev2: {7,6}.
	// SendIdx is local: {0,1,2,3}.
	send := m.Dev[1].SendIdx
	want := []int32{0, 1, 2, 3}
	if len(send) != 4 {
		t.Fatalf("SendIdx = %v", send)
	}
	for i := range want {
		if send[i] != want[i] {
			t.Fatalf("SendIdx = %v, want %v", send, want)
		}
	}
	// Device 0 must send rows 3 (dist1 of dev1) and 2 (dist2 of dev1):
	// local {2,3}.
	send = m.Dev[0].SendIdx
	if len(send) != 2 || send[0] != 2 || send[1] != 3 {
		t.Fatalf("dev0 SendIdx = %v", send)
	}
}

func TestHaloSingleDevice(t *testing.T) {
	// One device: no halo at all, any s.
	a := pathN(10)
	ctx := gpu.NewContext(1, gpu.M2090())
	m := Distribute(ctx, a, Uniform(10, 1), 4)
	if len(m.Dev[0].Halo) != 0 || len(m.Dev[0].SendIdx) != 0 {
		t.Fatal("single device should have empty halo")
	}
	if m.Dev[0].LocalNNZ() != a.NNZ() {
		t.Fatal("single device owns all nonzeros")
	}
}

func TestExtRelabeling(t *testing.T) {
	// The extended matrix must reproduce the global rows under the local
	// numbering: multiply an indicator vector and compare.
	rng := rand.New(rand.NewSource(5))
	a := randSquare(rng, 40, 3)
	ctx := gpu.NewContext(2, gpu.M2090())
	m := Distribute(ctx, a, Uniform(40, 2), 3)
	for d, dm := range m.Dev {
		own0 := m.Layout.OwnStart(d)
		// Build extended x from a random global vector.
		xg := make([]float64, 40)
		for i := range xg {
			xg[i] = rng.NormFloat64()
		}
		ext := make([]float64, dm.NOwn+len(dm.Halo))
		for i := 0; i < dm.NOwn; i++ {
			ext[i] = xg[own0+i]
		}
		for h, g := range dm.Halo {
			ext[dm.NOwn+h] = xg[g]
		}
		// Owned rows of Ext * ext must equal global A*xg on owned rows.
		// (Owned rows only touch distance<=1 columns, all in the halo.)
		yl := make([]float64, dm.NOwn)
		dm.Ext.MulVecPrefix(yl, ext, dm.NOwn)
		yg := make([]float64, 40)
		mulVec(a, yg, xg)
		for i := 0; i < dm.NOwn; i++ {
			if !approxEq(yl[i], yg[own0+i], 1e-12) {
				t.Fatalf("dev %d row %d: %v vs %v", d, i, yl[i], yg[own0+i])
			}
		}
	}
}

func TestDistributeValidates(t *testing.T) {
	a := pathN(10)
	ctx := gpu.NewContext(2, gpu.M2090())
	for _, fn := range []func(){
		func() { Distribute(ctx, a, Uniform(10, 2), 0) },
		func() { Distribute(ctx, a, Uniform(9, 2), 1) },
		func() {
			b := sparse.NewCSR(3, 4, 0)
			Distribute(ctx, b, Uniform(3, 2), 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHaloAtDist(t *testing.T) {
	a := pathN(12)
	ctx := gpu.NewContext(3, gpu.M2090())
	m := Distribute(ctx, a, Uniform(12, 3), 2)
	dm := m.Dev[1]
	// Halo is sorted by distance: the paper's boundary sets
	// delta^(d, s-t+1), nearest first, each in ascending global order.
	if want := []int32{3, 8, 2, 9}; !slices.Equal(dm.Halo, want) {
		t.Fatalf("Halo = %v, want %v", dm.Halo, want)
	}
	if got, want := haloDist(dm), []int{1, 1, 2, 2}; !slices.Equal(got, want) {
		t.Fatalf("halo distances = %v, want %v", got, want)
	}
}

// haloDist expands RowsAtDist into the distance of each halo row.
func haloDist(dm *DeviceMatrix) []int {
	dist := make([]int, 0, len(dm.Halo))
	for t := 1; t < len(dm.RowsAtDist); t++ {
		for range dm.RowsAtDist[t] - dm.RowsAtDist[t-1] {
			dist = append(dist, t)
		}
	}
	return dist
}

func TestBoundaryNNZTridiag(t *testing.T) {
	a := pathN(12)
	ctx := gpu.NewContext(3, gpu.M2090())
	m := Distribute(ctx, a, Uniform(12, 3), 2)
	dm := m.Dev[1]
	// Our implementation stores matrix rows only for dist <= s-1 = 1:
	// rows 3 and 8, each with 3 nonzeros.
	if got := dm.BoundaryNNZ(); got != 6 {
		t.Fatalf("BoundaryNNZ = %d", got)
	}
	// LocalNNZ: rows 4..7 have 3 nnz each.
	if got := dm.LocalNNZ(); got != 12 {
		t.Fatalf("LocalNNZ = %d", got)
	}
}
