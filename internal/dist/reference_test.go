package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/graph"
	"cagmres/internal/matgen"
	"cagmres/internal/profile"
	"cagmres/internal/sparse"
)

// mulVec computes y := A x row by row, each row's products summed in
// column order: the host product the distributed kernels are checked
// against.
func mulVec(a *sparse.CSR, y, x []float64) {
	for i := range y {
		cols, vals := a.Row(i)
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
	}
}

// referenceDeviceMatrix is the builder buildDeviceMatrix replaced, kept
// as its oracle: a queue BFS over a full distance array, a comparison
// sort of the halo, the extended matrix as a CSR (ExtractRows +
// RelabelCols, returned beside the device matrix, which keeps only its
// device format), and an interior scan of every owned row.
func referenceDeviceMatrix(a *sparse.CSR, l *Layout, d, s int) (*DeviceMatrix, *sparse.CSR) {
	n := a.Rows
	own0, own1 := l.OwnStart(d), l.OwnStart(d)+l.OwnCount(d)
	nOwn := own1 - own0

	// BFS distances from the owned set. dist[v] = -1 means unreached.
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, nOwn)
	for i := own0; i < own1; i++ {
		dist[i] = 0
		queue = append(queue, i)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] >= s {
			continue // do not expand beyond depth s
		}
		for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
			w := a.ColIdx[k]
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}

	// Halo: reached non-owned vertices, sorted by (distance, index).
	halo := make([]int, 0)
	for v := 0; v < n; v++ {
		if dist[v] > 0 {
			halo = append(halo, v)
		}
	}
	sort.Slice(halo, func(i, j int) bool {
		if dist[halo[i]] != dist[halo[j]] {
			return dist[halo[i]] < dist[halo[j]]
		}
		return halo[i] < halo[j]
	})
	haloDist := make([]int, len(halo))
	for h, v := range halo {
		haloDist[h] = dist[v]
	}

	// RowsAtDist[t] = #extended rows with distance <= t.
	rowsAtDist := make([]int, s+1)
	rowsAtDist[0] = nOwn
	h := 0
	for t := 1; t <= s; t++ {
		for h < len(halo) && haloDist[h] <= t {
			h++
		}
		rowsAtDist[t] = nOwn + h
	}

	// Local extended numbering: owned first, then halo in order.
	localOf := make([]int, n)
	for i := range localOf {
		localOf[i] = -1
	}
	for i := own0; i < own1; i++ {
		localOf[i] = i - own0
	}
	for hh, v := range halo {
		localOf[v] = nOwn + hh
	}

	// Extended matrix: rows with distance <= s-1, relabeled columns.
	extRows := make([]int, 0, rowsAtDist[s-1])
	for i := own0; i < own1; i++ {
		extRows = append(extRows, i)
	}
	for hh, v := range halo {
		if haloDist[hh] <= s-1 {
			extRows = append(extRows, v)
		}
	}
	ext := a.ExtractRows(extRows)
	ext.RelabelCols(localOf, nOwn+len(halo))

	nnzPrefix := make([]int, s)
	for t := 0; t <= s-1; t++ {
		nnzPrefix[t] = ext.RowPtr[rowsAtDist[t]]
	}

	// Interior split: owned rows touching only owned columns.
	intRows, intNNZ := 0, 0
	for i := 0; i < nOwn; i++ {
		interior := true
		for k := ext.RowPtr[i]; k < ext.RowPtr[i+1]; k++ {
			if ext.ColIdx[k] >= nOwn {
				interior = false
				break
			}
		}
		if interior {
			intRows++
			intNNZ += ext.RowPtr[i+1] - ext.RowPtr[i]
		}
	}

	return &DeviceMatrix{
		NOwn:         nOwn,
		Halo:         narrow(halo),
		RowsAtDist:   rowsAtDist,
		NNZPrefix:    nnzPrefix,
		InteriorRows: intRows,
		InteriorNNZ:  intNNZ,
	}, ext
}

// referenceSendAndTraffic is the send-set and peer-traffic construction
// Distribute replaced: per-owner lists, sorted and deduplicated. depth1
// restricts it to distance-1 halos.
func referenceSendAndTraffic(dev []*DeviceMatrix, l *Layout, depth1 bool) ([][]int, [][]int) {
	ng := len(dev)
	needed := make([][]int, ng)
	traffic := make([][]int, ng)
	for o := range traffic {
		traffic[o] = make([]int, ng)
	}
	for d, dm := range dev {
		for h, g := range dm.Halo {
			if depth1 && h >= dm.RowsAtDist[1]-dm.NOwn {
				continue
			}
			o := l.Owner(int(g))
			needed[o] = append(needed[o], int(g))
			traffic[o][d] += gpu.ScalarBytes
		}
	}
	send := make([][]int, ng)
	for o := range needed {
		sort.Ints(needed[o])
		for i, g := range needed[o] {
			if i == 0 || g != needed[o][i-1] {
				send[o] = append(send[o], g-l.OwnStart(o))
			}
		}
	}
	return send, traffic
}

// narrow and widen convert index lists between the reference's width and
// the device matrix's.
func narrow(x []int) []int32 {
	out := make([]int32, len(x))
	for i, v := range x {
		out[i] = int32(v)
	}
	return out
}

func widen(x []int32) []int {
	out := make([]int, len(x))
	for i, v := range x {
		out[i] = int(v)
	}
	return out
}

func equalCSR(a, b *sparse.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.ColIdx, b.ColIdx) && slices.Equal(a.Val, b.Val)
}

// ordered is a matrix in some ordering with the layout that ordering
// implies — what core.Prepare hands to Distribute.
type ordered struct {
	a *sparse.CSR
	l *Layout
}

// orderings returns the matrix under natural, RCM and k-way ordering for
// ng devices.
func orderings(a *sparse.CSR, ng int) map[string]ordered {
	g := graph.FromMatrix(a)
	perm, bounds := graph.KWay(g, ng, 1).Order()
	return map[string]ordered{
		"natural": {a, Uniform(a.Rows, ng)},
		"rcm":     {a.Permute(graph.RCM(g)), Uniform(a.Rows, ng)},
		"kway":    {a.Permute(perm), NewLayout(a.Rows, bounds)},
	}
}

// checkMatchesReference compares every field of every device matrix of m
// (built from a over l), the send sets and the traffic tables with the
// construction this package used before the linear-time builder.
func checkMatchesReference(t testing.TB, tag string, m *Matrix, a *sparse.CSR, l *Layout) {
	t.Helper()
	for d, got := range m.Dev {
		want, wantExt := referenceDeviceMatrix(a, l, d, m.S)
		switch {
		case got.NOwn != want.NOwn:
			t.Fatalf("%s dev %d: NOwn %d want %d", tag, d, got.NOwn, want.NOwn)
		case !slices.Equal(got.Halo, want.Halo):
			t.Fatalf("%s dev %d: Halo differs", tag, d)
		case !slices.Equal(got.RowsAtDist, want.RowsAtDist):
			t.Fatalf("%s dev %d: RowsAtDist %v want %v", tag, d, got.RowsAtDist, want.RowsAtDist)
		case !equalCSR(got.Ext.ToCSR(), wantExt):
			t.Fatalf("%s dev %d: extended matrix differs", tag, d)
		case !slices.Equal(got.NNZPrefix, want.NNZPrefix):
			t.Fatalf("%s dev %d: NNZPrefix %v want %v", tag, d, got.NNZPrefix, want.NNZPrefix)
		case got.LocalNNZ() != wantExt.RowPtr[got.NOwn]:
			t.Fatalf("%s dev %d: LocalNNZ %d want %d", tag, d, got.LocalNNZ(), wantExt.RowPtr[got.NOwn])
		case got.InteriorRows != want.InteriorRows || got.InteriorNNZ != want.InteriorNNZ:
			t.Fatalf("%s dev %d: interior %d/%d want %d/%d", tag, d,
				got.InteriorRows, got.InteriorNNZ, want.InteriorRows, want.InteriorNNZ)
		}
	}
	send, traffic := referenceSendAndTraffic(m.Dev, l, false)
	send1, traffic1 := referenceSendAndTraffic(m.Dev, l, true)
	for d, dm := range m.Dev {
		if !slices.Equal(widen(dm.SendIdx), send[d]) || !slices.Equal(widen(dm.SendIdx1), send1[d]) {
			t.Fatalf("%s dev %d: send sets differ", tag, d)
		}
		if !slices.Equal(m.PeerTraffic[d], traffic[d]) || !slices.Equal(m.PeerTraffic1[d], traffic1[d]) {
			t.Fatalf("%s dev %d: peer traffic differs", tag, d)
		}
	}
}

// referenceShapes calls f on every shape of the reference table: the four
// paper generators x {natural, rcm, kway} x 1-4 devices x s in {1, 2, 5,
// 15}.
func referenceShapes(t *testing.T, f func(tag string, in ordered, ng, s int)) {
	t.Helper()
	for _, name := range []string{"cant", "G3_circuit", "dielFilterV2real", "nlpkkt120"} {
		mat, err := matgen.ByName(name, 0.0006)
		if err != nil {
			t.Fatal(err)
		}
		for ng := 1; ng <= 4; ng++ {
			for ord, in := range orderings(mat.A, ng) {
				for _, s := range []int{1, 2, 5, 15} {
					f(fmt.Sprintf("%s %s ng=%d s=%d", name, ord, ng, s), in, ng, s)
				}
			}
		}
	}
}

// TestDistributeMatchesReference holds Distribute to the reference
// construction on every shape of the reference table.
func TestDistributeMatchesReference(t *testing.T) {
	referenceShapes(t, func(tag string, in ordered, ng, s int) {
		checkMatchesReference(t, tag, Distribute(gpu.NewContext(ng, gpu.M2090()), in.a, in.l, s), in.a, in.l)
	})
}

// FuzzDistribute holds Distribute to the reference construction on
// seeded random patterns — nonsymmetric, with empty rows and empty
// device blocks — over 1-4 devices and s in 1..5.
func FuzzDistribute(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(2))
	f.Add(int64(7), uint8(1), uint8(4), uint8(5))
	f.Add(int64(3), uint8(97), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rows, devices, depth uint8) {
		n, ng, s := 1+int(rows)%120, 1+int(devices)%4, 1+int(depth)%5
		rng := rand.New(rand.NewSource(seed))
		var entries []sparse.Coord
		for i := 0; i < n; i++ {
			for range rng.Intn(6) { // 0..5 entries, so some rows are empty
				entries = append(entries, sparse.Coord{Row: i, Col: rng.Intn(n), Val: rng.NormFloat64()})
			}
		}
		a := sparse.FromCoords(n, n, entries)
		bounds := make([]int, ng+1)
		for d := 1; d < ng; d++ {
			bounds[d] = rng.Intn(n + 1)
		}
		bounds[ng] = n
		sort.Ints(bounds)
		l := NewLayout(n, bounds)
		tag := fmt.Sprintf("seed %d n=%d bounds=%v s=%d", seed, n, bounds, s)
		checkMatchesReference(t, tag, Distribute(gpu.NewContext(ng, gpu.M2090()), a, l, s), a, l)
	})
}

// TestDeepSpMVIsTheDepthOneSpMV is the nesting property CA-GMRES's
// single distribution rests on: MPK.SpMV on a depth-s distribution
// returns the bits and charges the ledger of MPK.SpMV on a dedicated
// depth-1 distribution — on host-hub, peer-to-peer and clustered
// machines, overlap on and off.
func TestDeepSpMVIsTheDepthOneSpMV(t *testing.T) {
	mat, err := matgen.ByName("G3_circuit", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	nvlink, err := profile.WithTopology(profile.A100PCIe(), gpu.TopoNVLinkRing)
	if err != nil {
		t.Fatal(err)
	}
	n := mat.A.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	for _, prof := range []gpu.Profile{gpu.M2090(), nvlink, profile.H100NVLink()} {
		for _, overlap := range []bool{false, true} {
			for ord, in := range orderings(mat.A, 3) {
				run := func(s int) ([]float64, string) {
					ctx := gpu.NewContext(3, prof)
					ctx.SetOverlap(overlap)
					mpk := NewMPK(Distribute(ctx, in.a, in.l, s))
					v := NewVectors(ctx, in.l, 3)
					v.SetColFromHost(0, x)
					mpk.SpMV(v, 0, v, 1, "spmv")
					mpk.SpMV(v, 1, v, 2, "spmv")
					st := ctx.Stats()
					return v.GatherCol(2), st.String() + st.DeviceString() + fmt.Sprint(st.TotalTime())
				}
				y1, ledger1 := run(1)
				for _, s := range []int{2, 7} {
					ys, ledgerS := run(s)
					if !slices.Equal(y1, ys) {
						t.Fatalf("%s %s overlap=%v s=%d: SpMV result differs from depth 1", prof.Name, ord, overlap, s)
					}
					if ledger1 != ledgerS {
						t.Fatalf("%s %s overlap=%v s=%d: ledger differs from depth 1:\n%s\n--- depth 1 ---\n%s",
							prof.Name, ord, overlap, s, ledgerS, ledger1)
					}
				}
			}
		}
	}
}

// TestDistributeAllocationsIndependentOfRows bounds the allocation count
// of a distribution by the device count alone: a matrix ten times taller
// allocates exactly as often.
func TestDistributeAllocationsIndependentOfRows(t *testing.T) {
	const ng, s = 3, 5
	allocs := func(nx int) float64 {
		a := matgen.Laplace2D(nx, 40, 0.2)
		l := Uniform(a.Rows, ng)
		ctx := gpu.NewContext(ng, gpu.M2090())
		return testing.AllocsPerRun(5, func() { Distribute(ctx, a, l, s) })
	}
	small, tall := allocs(40), allocs(400)
	if small != tall {
		t.Fatalf("Distribute allocates %v times at 1600 rows, %v at 16000", small, tall)
	}
	if limit := float64(40 * ng); small > limit {
		t.Fatalf("Distribute allocates %v times for %d devices, want at most %v", small, ng, limit)
	}
}
