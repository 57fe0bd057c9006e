package dist

// MPKAnalysis quantifies the overheads the matrix powers kernel trades
// for latency, the quantities plotted in Figures 6 and 7 of the paper:
// per-device surface-to-volume ratios (extra matrix storage), the extra
// flops W^(d,s), and the gather/scatter communication volumes.
type MPKAnalysis struct {
	S int
	// LocalNNZ[d] is nnz(A^(d)), the owned-row nonzeros.
	LocalNNZ []int
	// BoundaryNNZ[d] is nnz(A(delta^(d,1:s), :)) — the nonzeros of all
	// halo rows, the paper's measure of extra matrix storage.
	BoundaryNNZ []int
	// SurfaceToVolume[d] = BoundaryNNZ[d] / LocalNNZ[d] (Figure 6).
	SurfaceToVolume []float64
	// ExtraWork[d] is W^(d,s) = 2 * sum_{t=1..s} nnz(halo rows with
	// distance <= t): the additional flops of one MPK invocation relative
	// to s plain SpMVs (the shaded area of Figure 6).
	ExtraWork []float64
	// HaloSize[d] = |delta^(d,1:s)|, the vector elements device d gathers.
	HaloSize []int
	// GatherVolume = |union_d delta^(d,1:s)| — elements shipped GPU->CPU
	// per MPK call (each element leaves its unique owner once).
	GatherVolume int
	// ScatterVolume = sum_d |delta^(d,1:s)| — elements shipped CPU->GPU.
	ScatterVolume int
}

// Analyze computes the MPK overhead metrics of a distributed matrix.
func Analyze(m *Matrix) *MPKAnalysis {
	ng := len(m.Dev)
	an := &MPKAnalysis{
		S:               m.S,
		LocalNNZ:        make([]int, ng),
		BoundaryNNZ:     make([]int, ng),
		SurfaceToVolume: make([]float64, ng),
		ExtraWork:       make([]float64, ng),
		HaloSize:        make([]int, ng),
	}
	g := m.Global
	for d, dm := range m.Dev {
		an.LocalNNZ[d] = dm.LocalNNZ()
		for _, row := range dm.Halo {
			an.BoundaryNNZ[d] += g.RowPtr[row+1] - g.RowPtr[row]
		}
		if an.LocalNNZ[d] > 0 {
			an.SurfaceToVolume[d] = float64(an.BoundaryNNZ[d]) / float64(an.LocalNNZ[d])
		}
		// W^(d,s): cumulative halo nnz by distance.
		cum := 0
		for t := 1; t <= m.S; t++ {
			for _, row := range dm.Halo[dm.RowsAtDist[t-1]-dm.NOwn : dm.RowsAtDist[t]-dm.NOwn] {
				cum += g.RowPtr[row+1] - g.RowPtr[row]
			}
			an.ExtraWork[d] += 2 * float64(cum)
		}
		an.HaloSize[d] = len(dm.Halo)
		an.ScatterVolume += len(dm.Halo)
		an.GatherVolume += len(dm.SendIdx)
	}
	return an
}

// TotalCommVolume returns the total number of vector elements moved over
// the bus to generate mIters basis vectors: ceil(mIters/s) MPK calls, each
// moving GatherVolume + ScatterVolume elements (the quantity of Figure 7).
func (an *MPKAnalysis) TotalCommVolume(mIters int) int {
	calls := (mIters + an.S - 1) / an.S
	return calls * (an.GatherVolume + an.ScatterVolume)
}

// MaxSurfaceToVolume returns the worst per-device ratio, the headline
// number of Figure 6.
func (an *MPKAnalysis) MaxSurfaceToVolume() float64 {
	var max float64
	for _, r := range an.SurfaceToVolume {
		if r > max {
			max = r
		}
	}
	return max
}

// TotalExtraWork returns sum_d W^(d,s) — the total extra flops of one MPK
// invocation across the devices.
func (an *MPKAnalysis) TotalExtraWork() float64 {
	var w float64
	for _, x := range an.ExtraWork {
		w += x
	}
	return w
}
