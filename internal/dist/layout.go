// Package dist implements the block-row distributed objects of the
// reproduction: a layout describing which simulated GPU owns which rows, a
// distributed multivector (the Krylov basis V), a distributed sparse
// matrix with the halo index sets of the matrix powers kernel, the
// distributed SpMV, and the matrix powers kernel itself (monomial and
// Newton bases), together with the analyzers that regenerate the paper's
// surface-to-volume and communication-volume figures.
package dist

import (
	"fmt"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// Layout is a block-row distribution of n rows over ng devices: device d
// owns the contiguous global row range [Bounds[d], Bounds[d+1]). The
// matrix is permuted before distribution (natural, RCM, or k-way ordering)
// so contiguous ranges are all a layout needs.
type Layout struct {
	N      int
	Bounds []int
}

// NewLayout builds a layout from explicit bounds; bounds[0] must be 0 and
// bounds[ng] must be n.
func NewLayout(n int, bounds []int) *Layout {
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != n {
		panic(fmt.Sprintf("dist: bad bounds %v for n=%d", bounds, n))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			panic(fmt.Sprintf("dist: non-monotone bounds %v", bounds))
		}
	}
	return &Layout{N: n, Bounds: append([]int(nil), bounds...)}
}

// Uniform splits n rows evenly over ng devices.
func Uniform(n, ng int) *Layout {
	bounds := make([]int, ng+1)
	base, rem := n/ng, n%ng
	for d := 0; d < ng; d++ {
		bounds[d+1] = bounds[d] + base
		if d < rem {
			bounds[d+1]++
		}
	}
	return &Layout{N: n, Bounds: bounds}
}

// NumDevices returns the device count.
func (l *Layout) NumDevices() int { return len(l.Bounds) - 1 }

// OwnStart returns the first global row owned by device d.
func (l *Layout) OwnStart(d int) int { return l.Bounds[d] }

// OwnCount returns how many rows device d owns.
func (l *Layout) OwnCount(d int) int { return l.Bounds[d+1] - l.Bounds[d] }

// Owner returns the device owning global row i.
func (l *Layout) Owner(i int) int {
	lo, hi := 0, l.NumDevices()
	for lo < hi {
		mid := (lo + hi) / 2
		if i >= l.Bounds[mid+1] {
			lo = mid + 1
		} else if i < l.Bounds[mid] {
			hi = mid
		} else {
			return mid
		}
	}
	return lo
}

// Vectors is a distributed dense multivector: column j is a vector of
// length N whose rows are split over the devices per the layout. It is the
// storage for the Krylov basis V_{1:m+1}.
type Vectors struct {
	Ctx    *gpu.Context
	Layout *Layout
	Cols   int
	Local  []*la.Dense // Local[d] is OwnCount(d) x Cols

	op vecOp // the column operation in flight (ops.go)
}

// heap is the memory source of NewVectors and NewMPK: objects their
// caller may hold across solves.
var heap gpu.Workspace

// NewVectors allocates a distributed multivector of the given width on
// the heap: the caller keeps it as long as it likes.
func NewVectors(ctx *gpu.Context, l *Layout, cols int) *Vectors {
	return NewVectorsIn(&heap, ctx, l, cols)
}

// NewVectorsIn builds the multivector in ws, device d's block in device
// d's memory, zeroed: it is valid until ws is released.
func NewVectorsIn(ws *gpu.Workspace, ctx *gpu.Context, l *Layout, cols int) *Vectors {
	if ctx.NumDevices != l.NumDevices() {
		panic(fmt.Sprintf("dist: context has %d devices, layout %d", ctx.NumDevices, l.NumDevices()))
	}
	v := &Vectors{Ctx: ctx, Layout: l, Cols: cols, Local: make([]*la.Dense, l.NumDevices())}
	for d := range v.Local {
		rows := l.OwnCount(d)
		v.Local[d] = &la.Dense{Rows: rows, Cols: cols, Stride: rows, Data: ws.Floats(d, rows*cols)}
	}
	v.buildOps()
	return v
}

// SetColFromHost scatters a host vector of length N into column j.
// (Setup-time helper; not charged to the communication ledger.)
func (v *Vectors) SetColFromHost(j int, x []float64) {
	if len(x) != v.Layout.N {
		panic("dist: SetColFromHost length mismatch")
	}
	for d := range v.Local {
		copy(v.Local[d].Col(j), x[v.Layout.OwnStart(d):v.Layout.OwnStart(d)+v.Layout.OwnCount(d)])
	}
}

// GatherCol assembles column j into a host vector of length N.
// (Inspection helper; not charged to the ledger.)
func (v *Vectors) GatherCol(j int) []float64 {
	x := make([]float64, v.Layout.N)
	for d := range v.Local {
		copy(x[v.Layout.OwnStart(d):], v.Local[d].Col(j))
	}
	return x
}

// Window returns the per-device column views [j0, j1) as a slice of
// la.Dense, the shape the orthogonalization kernels consume.
func (v *Vectors) Window(j0, j1 int) []*la.Dense {
	w := make([]*la.Dense, len(v.Local))
	for d := range v.Local {
		w[d] = v.Local[d].ColView(j0, j1)
	}
	return w
}
