package dist

import (
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// Distributed BLAS-1/2 operations on Vectors columns, charged as the
// paper's implementation runs them: purely local work is a device kernel,
// every reduction one all-reduce, every host value the devices need one
// broadcast — the collectives of gpu.Context, which own the protocol and
// its stream dependencies (internal/gpu/collective.go).

// vecOp is the operation in flight on a Vectors: the arguments its call
// set, and the device bodies that read them. The bodies are built once,
// by NewVectorsIn, so an operation wraps nothing per call; the context's
// fork guard lets one run at a time.
type vecOp struct {
	alpha  float64
	jx, jy int
	basis  *Vectors
	y      []float64

	dot                 func(d int, part []float64) gpu.Work
	axpy, scale, update func(d int) gpu.Work
}

// buildOps builds v's device bodies.
func (v *Vectors) buildOps() {
	v.op.dot = v.dotDev
	v.op.axpy = v.axpyDev
	v.op.scale = v.scaleDev
	v.op.update = v.updateDev
}

// DotCols returns the inner product of columns jx and jy: one local dot
// per device plus a reduce round of one scalar per device.
func (v *Vectors) DotCols(jx, jy int, phase string) float64 {
	var s [1]float64
	v.op.jx, v.op.jy = jx, jy
	v.Ctx.AllReduce(phase, s[:], gpu.Elem64, v.op.dot)
	return s[0]
}

func (v *Vectors) dotDev(d int, part []float64) gpu.Work {
	x := v.Local[d].Col(v.op.jx)
	part[0] = la.Dot(x, v.Local[d].Col(v.op.jy))
	return gpu.Dot(len(x))
}

// NormCol returns the 2-norm of column j (one reduce round).
func (v *Vectors) NormCol(j int, phase string) float64 {
	return math.Sqrt(v.DotCols(j, j, phase))
}

// AxpyCol computes column jy += alpha * column jx. Purely local.
func (v *Vectors) AxpyCol(alpha float64, jx, jy int, phase string) {
	v.op.alpha, v.op.jx, v.op.jy = alpha, jx, jy
	v.Ctx.Launch(phase, v.op.axpy)
}

func (v *Vectors) axpyDev(d int) gpu.Work {
	x := v.Local[d].Col(v.op.jx)
	la.Axpy(v.op.alpha, x, v.Local[d].Col(v.op.jy))
	return gpu.Axpy(len(x))
}

// ScaleCol multiplies column j by alpha. The scalar is broadcast to the
// devices first (one host-to-device round), matching the paper's
// normalization step v := v / r_kk.
func (v *Vectors) ScaleCol(alpha float64, j int, phase string) {
	// The scalar is host-side state (e.g. a norm the host just combined);
	// the broadcast starts once the host holds it, the kernel once the
	// broadcast lands.
	bc := v.Ctx.Broadcast(phase, 1, gpu.Elem64, v.Ctx.HostFence())
	v.op.alpha, v.op.jx = alpha, j
	v.Ctx.Launch(phase, v.op.scale, bc)
}

func (v *Vectors) scaleDev(d int) gpu.Work {
	col := v.Local[d].Col(v.op.jx)
	la.Scal(v.op.alpha, col)
	return gpu.Scale(len(col))
}

// UpdateWithBasis computes column jx of v += basis[:, j0:j0+k] * y for a
// host-side coefficient vector y of length k — the solution update
// x := x + V_m y at the end of a restart cycle. The coefficients are
// broadcast once, then each device runs a local GEMV. basis must share
// v's layout.
func (v *Vectors) UpdateWithBasis(jx int, basis *Vectors, j0 int, y []float64, phase string) {
	// y is computed on the host (the least-squares solve), so the
	// broadcast depends on the host stream, and the GEMV on the broadcast.
	bc := v.Ctx.Broadcast(phase, len(y), gpu.Elem64, v.Ctx.HostFence())
	v.op.jx, v.op.basis, v.op.jy, v.op.y = jx, basis, j0, y
	v.Ctx.Launch(phase, v.op.update, bc)
}

func (v *Vectors) updateDev(d int) gpu.Work {
	k := len(v.op.y)
	panel := v.op.basis.Local[d].ColView(v.op.jy, v.op.jy+k)
	la.Gemv(1, panel, v.op.y, 1, v.Local[d].Col(v.op.jx))
	return gpu.Gemv(v.Local[d].Rows, k)
}
