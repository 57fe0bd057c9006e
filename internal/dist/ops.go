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

// DotCols returns the inner product of columns jx and jy: one local dot
// per device plus a reduce round of one scalar per device.
func (v *Vectors) DotCols(jx, jy int, phase string) float64 {
	var s [1]float64
	v.Ctx.AllReduce(phase, s[:], gpu.Elem64, func(d int, part []float64) gpu.Work {
		x := v.Local[d].Col(jx)
		part[0] = la.Dot(x, v.Local[d].Col(jy))
		return gpu.Work{Flops: 2 * float64(len(x)), Bytes: 16 * float64(len(x))}
	})
	return s[0]
}

// NormCol returns the 2-norm of column j (one reduce round).
func (v *Vectors) NormCol(j int, phase string) float64 {
	return math.Sqrt(v.DotCols(j, j, phase))
}

// AxpyCol computes column jy += alpha * column jx. Purely local.
func (v *Vectors) AxpyCol(alpha float64, jx, jy int, phase string) {
	v.Ctx.Launch(phase, func(d int) gpu.Work {
		x := v.Local[d].Col(jx)
		la.Axpy(alpha, x, v.Local[d].Col(jy))
		return gpu.Work{Flops: 2 * float64(len(x)), Bytes: 24 * float64(len(x))}
	})
}

// ScaleCol multiplies column j by alpha. The scalar is broadcast to the
// devices first (one host-to-device round), matching the paper's
// normalization step v := v / r_kk.
func (v *Vectors) ScaleCol(alpha float64, j int, phase string) {
	// The scalar is host-side state (e.g. a norm the host just combined);
	// the broadcast starts once the host holds it, the kernel once the
	// broadcast lands.
	bc := v.Ctx.Broadcast(phase, 1, gpu.Elem64, v.Ctx.HostFence())
	v.Ctx.Launch(phase, func(d int) gpu.Work {
		col := v.Local[d].Col(j)
		la.Scal(alpha, col)
		return gpu.Work{Flops: float64(len(col)), Bytes: 16 * float64(len(col))}
	}, bc)
}

// UpdateWithBasis computes column jx of v += basis[:, j0:j0+k] * y for a
// host-side coefficient vector y of length k — the solution update
// x := x + V_m y at the end of a restart cycle. The coefficients are
// broadcast once, then each device runs a local GEMV. basis must share
// v's layout.
func (v *Vectors) UpdateWithBasis(jx int, basis *Vectors, j0 int, y []float64, phase string) {
	k := len(y)
	// y is computed on the host (the least-squares solve), so the
	// broadcast depends on the host stream, and the GEMV on the broadcast.
	bc := v.Ctx.Broadcast(phase, k, gpu.Elem64, v.Ctx.HostFence())
	v.Ctx.Launch(phase, func(d int) gpu.Work {
		panel := basis.Local[d].ColView(j0, j0+k)
		la.Gemv(1, panel, y, 1, v.Local[d].Col(jx))
		rows := float64(v.Local[d].Rows)
		return gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+2)}
	}, bc)
}
