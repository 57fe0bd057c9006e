package ortho

import (
	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// CAQR is the communication-avoiding QR of Demmel et al.: each device
// computes a Householder QR of its local panel, the small R factors are
// gathered and stacked on the host, a second QR of the stack yields the
// global R, and each device multiplies its local Q by its block of the
// stack's Q. Two GPU-CPU transfers per window and unconditional O(eps)
// stability — but the local factorizations are BLAS-1/2 bound, so on
// devices CAQR runs at a fraction of CholQR's BLAS-3 rate, and forming Q
// explicitly (as the paper's implementation does) doubles the flops to
// 4ns^2 (Figure 10).
type CAQR struct{}

// Name implements TSQR.
func (CAQR) Name() string { return "CAQR" }

// Factor implements TSQR.
func (CAQR) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	c := windowCols(ctx, w)
	ng := len(w)
	localQ := make([]*la.Dense, ng)
	localR := make([]*la.Dense, ng)
	k := ctx.Launch(phase, func(d int) gpu.Work {
		if w[d].Rows < c {
			// Short-wide panel (a device owning fewer rows than the window
			// is wide): generalized TSQR. Factor the leading square block,
			// keep the full orthonormal Q (rows x rows) and the
			// upper-trapezoidal R := Q'W (rows x c); stacking trapezoidal
			// factors still reconstructs W_d = Q_d (Q_stack,d R).
			localQ[d], localR[d] = wideLocalQR(w[d])
		} else {
			f := la.HouseholderQR(w[d])
			localQ[d] = f.FormQ()
			localR[d] = f.R()
		}
		return gpu.CAQRLocal(w[d].Rows, c)
	})
	// Gather the R factors (min(rows, c) x c each).
	ctx.Gather(phase, c*c, gpu.Elem64, k)

	// Host: QR of the stacked R factors. The row offset of device d's
	// block inside the stack (blocks are square except short panels').
	off := make([]int, ng+1)
	for d := 0; d < ng; d++ {
		off[d+1] = off[d] + localR[d].Rows
	}
	if off[ng] < c {
		return nil, ErrRankDeficient
	}
	stack := la.NewDense(off[ng], c)
	for d := 0; d < ng; d++ {
		for j := 0; j < c; j++ {
			copy(stack.Col(j)[off[d]:off[d+1]], localR[d].Col(j))
		}
	}
	f := la.HouseholderQR(stack)
	qStack := f.FormQ()
	r := f.R()
	la.FixRSigns(qStack, r)
	// The host tree-reduction starts when the stacked R factors arrive;
	// qStack is host-computed, so the scatter explicitly depends on it.
	hqr := ctx.HostComputeOn(phase, 4*float64(ng*c)*float64(c)*float64(c))

	// Scatter the Q blocks; each device forms its final panel
	// Q_d := localQ_d * qStack_d.
	bc := ctx.Broadcast(phase, c*c, gpu.Elem64, hqr)
	ctx.Launch(phase, func(d int) gpu.Work {
		qd := qStack.RowView(off[d], off[d+1])
		out := la.NewDense(w[d].Rows, c)
		la.GemmNN(1, localQ[d], qd, 0, out)
		w[d].CopyFrom(out)
		return gpu.GemmNN(w[d].Rows, c, c, gpu.Elem64)
	}, bc)
	// Zero columns produce zero diagonals in R; surface as rank
	// deficiency for parity with the other strategies.
	for i := 0; i < c; i++ {
		if r.At(i, i) == 0 {
			return nil, ErrRankDeficient
		}
	}
	return finite(r)
}

// wideLocalQR factors a short-wide panel W (rows < cols) as W = Q*R with
// Q (rows x rows) orthonormal and R (rows x cols) upper-trapezoidal: a
// Householder QR of the leading square block supplies Q and the leading
// triangle, the trailing columns are Q'W. Previously such panels made
// the local factorization panic, which a device owning fewer rows than
// the CA window is wide could trigger on tiny problems.
func wideLocalQR(w *la.Dense) (qOut, rOut *la.Dense) {
	rows, c := w.Rows, w.Cols
	f := la.HouseholderQR(w.ColView(0, rows))
	qOut = f.FormQ()
	rOut = la.NewDense(rows, c)
	for j := 0; j < rows; j++ {
		copy(rOut.Col(j), f.R().Col(j))
	}
	tail := w.ColView(rows, c)
	la.GemmTN(1, qOut, tail, 0, rOut.ColView(rows, c))
	return qOut, rOut
}
