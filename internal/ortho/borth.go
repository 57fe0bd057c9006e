package ortho

import (
	"fmt"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// BOrth orthogonalizes a new window of basis vectors against the
// previously orthonormalized columns: W := W - P (P' W). It returns the
// coefficient matrix C = P' W (pcols x wcols), which CA-GMRES needs to
// rebuild the Hessenberg matrix.
type BOrth interface {
	// Name identifies the variant ("BOrth-MGS", "BOrth-CGS").
	Name() string
	// Project updates W in place against the panel P and returns C.
	Project(ctx *gpu.Context, p, w []*la.Dense, phase string) *la.Dense
}

// BOrthCGS projects the whole window against all previous columns with a
// single pair of BLAS-3 products: one reduce round for C = P'W, one
// broadcast, one local update W -= P C. With j previous columns this is 2
// transfers instead of BOrthMGS's 2j — the block analogue of the
// CGS-vs-MGS trade, and the variant the paper uses in its CA-GMRES runs
// (Figure 14 note: "BOrth is based on CGS").
type BOrthCGS struct {
	// Elem, when not Elem64, runs the projection in single precision:
	// float32 BLAS-3 kernels, half-width coefficient transfers (tagged
	// in the precision ledger), and a float32-granular host combine.
	// Coefficients never drop below fp32 — bfloat16 is reserved for
	// basis storage and halo payloads.
	Elem gpu.Elem
}

// Name implements BOrth.
func (BOrthCGS) Name() string { return "BOrth-CGS" }

// Project implements BOrth.
func (o BOrthCGS) Project(ctx *gpu.Context, p, w []*la.Dense, phase string) *la.Dense {
	elem := o.Elem
	if elem != gpu.Elem64 {
		elem = gpu.Elem32
	}
	fp32 := elem == gpu.Elem32
	pc, wc := windowCols(ctx, p), windowCols(ctx, w)
	c := la.NewDense(pc, wc)
	ctx.AllReduce(phase, c.Data, elem, func(d int, part []float64) gpu.Work {
		cpart := &la.Dense{Rows: pc, Cols: wc, Stride: pc, Data: part}
		rows := float64(p[d].Rows)
		if fp32 {
			la.GemmTNF32(1, p[d], w[d], 0, cpart)
			return gpu.Work{Flops: 2 * rows * float64(pc) * float64(wc), Bytes: 4 * rows * float64(pc+wc), Elem: gpu.Elem32}
		}
		la.BatchedGemmTN(p[d], w[d], cpart)
		return gpu.Work{Flops: 2 * rows * float64(pc) * float64(wc), Bytes: 8 * rows * float64(pc+wc)}
	})
	// The broadcast relays the reduced C (implicit host-arrival ordering);
	// the rank-update waits only for it, leaving the host free.
	bc := ctx.Broadcast(phase, pc*wc, elem)
	ctx.Launch(phase, func(d int) gpu.Work {
		rows := float64(p[d].Rows)
		if fp32 {
			la.GemmNNF32(-1, p[d], c, 1, w[d])
			return gpu.Work{Flops: 2 * rows * float64(pc) * float64(wc), Bytes: 4 * rows * float64(pc+2*wc), Elem: gpu.Elem32}
		}
		la.GemmNN(-1, p[d], c, 1, w[d])
		return gpu.Work{Flops: 2 * rows * float64(pc) * float64(wc), Bytes: 8 * rows * float64(pc+2*wc)}
	}, bc)
	return c
}

// BOrthMGS projects the window against the previous columns one column
// of P at a time: for each previous column, a BLAS-2 product row of
// C and a rank-1 update. Communicates 2j times for j previous columns
// but touches each previous column only once per pass, the modified
// Gram-Schmidt ordering.
type BOrthMGS struct{}

// Name implements BOrth.
func (BOrthMGS) Name() string { return "BOrth-MGS" }

// Project implements BOrth.
func (BOrthMGS) Project(ctx *gpu.Context, p, w []*la.Dense, phase string) *la.Dense {
	pc, wc := windowCols(ctx, p), windowCols(ctx, w)
	c := la.NewDense(pc, wc)
	row := make([]float64, wc)
	for l := 0; l < pc; l++ {
		// row l of C: c_l = p_l' W
		ctx.AllReduce(phase, row, gpu.Elem64, func(d int, part []float64) gpu.Work {
			pl := p[d].Col(l)
			la.GemvT(1, w[d], pl, 0, part)
			rows := float64(len(pl))
			return gpu.Work{Flops: 2 * rows * float64(wc), Bytes: 8 * rows * float64(wc+1)}
		})
		for j := 0; j < wc; j++ {
			c.Set(l, j, row[j])
		}
		bc := ctx.Broadcast(phase, wc, gpu.Elem64)
		// rank-1 update W -= p_l c_l
		ctx.Launch(phase, func(d int) gpu.Work {
			pl := p[d].Col(l)
			for j := 0; j < wc; j++ {
				la.Axpy(-row[j], pl, w[d].Col(j))
			}
			rows := float64(len(pl))
			return gpu.Work{Flops: 2 * rows * float64(wc), Bytes: 8 * rows * float64(2*wc+1)}
		}, bc)
	}
	return c
}

// BOrthByName maps a flag value to a block-orthogonalization variant.
func BOrthByName(name string) (BOrth, error) {
	switch name {
	case "CGS", "cgs", "BOrth-CGS":
		return BOrthCGS{}, nil
	case "MGS", "mgs", "BOrth-MGS":
		return BOrthMGS{}, nil
	}
	return nil, fmt.Errorf("ortho: unknown BOrth variant %q", name)
}
