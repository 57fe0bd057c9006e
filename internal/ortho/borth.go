package ortho

import (
	"fmt"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// BOrth orthogonalizes a new window of basis vectors against the
// previously orthonormalized columns: W := W - P (P' W). It returns the
// coefficient matrix C = P' W (pcols x wcols), which CA-GMRES needs to
// rebuild the Hessenberg matrix. The C of a variant bound to a Scratch
// lives in the scratch and stays valid until its next Project; an
// unbound one's is the caller's to keep.
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

	sc *Scratch // bound: the attempt's; nil: one on the heap per call
}

// Name implements BOrth.
func (BOrthCGS) Name() string { return "BOrth-CGS" }

// Project implements BOrth.
func (o BOrthCGS) Project(ctx *gpu.Context, p, w []*la.Dense, phase string) *la.Dense {
	sc := use(o.sc)
	if sc.tnPart == nil {
		sc.tnPart, sc.nnUpdate = sc.tnDev, sc.nnDev
	}
	elem := o.Elem
	if elem != gpu.Elem64 {
		elem = gpu.Elem32
	}
	pc, wc := windowCols(ctx, p), windowCols(ctx, w)
	c := sc.c.take(sc.ws, pc, wc)
	sc.p, sc.w, sc.m, sc.elem = p, w, c, elem
	ctx.AllReduce(phase, c.Data, elem, sc.tnPart)
	// The broadcast relays the reduced C (implicit host-arrival ordering);
	// the rank-update waits only for it, leaving the host free.
	bc := ctx.Broadcast(phase, pc*wc, elem)
	ctx.Launch(phase, sc.nnUpdate, bc)
	return c
}

func (sc *Scratch) tnDev(d int, part []float64) gpu.Work {
	p, w := sc.p[d], sc.w[d]
	cpart := la.Dense{Rows: p.Cols, Cols: w.Cols, Stride: p.Cols, Data: part}
	if sc.elem == gpu.Elem32 {
		la.GemmTNF32(1, p, w, 0, &cpart)
	} else {
		la.BatchedGemmTN(p, w, &cpart)
	}
	return gpu.GemmTN(p.Rows, p.Cols, w.Cols, sc.elem)
}

func (sc *Scratch) nnDev(d int) gpu.Work {
	p, w := sc.p[d], sc.w[d]
	if sc.elem == gpu.Elem32 {
		la.GemmNNF32(-1, p, sc.m, 1, w)
	} else {
		la.GemmNN(-1, p, sc.m, 1, w)
	}
	return gpu.GemmNN(p.Rows, p.Cols, w.Cols, sc.elem)
}

// BOrthMGS projects the window against the previous columns one column
// of P at a time: for each previous column, a BLAS-2 product row of
// C and a rank-1 update. Communicates 2j times for j previous columns
// but touches each previous column only once per pass, the modified
// Gram-Schmidt ordering.
type BOrthMGS struct {
	sc *Scratch // bound: the attempt's; nil: one on the heap per call
}

// Name implements BOrth.
func (BOrthMGS) Name() string { return "BOrth-MGS" }

// Project implements BOrth.
func (o BOrthMGS) Project(ctx *gpu.Context, p, w []*la.Dense, phase string) *la.Dense {
	sc := use(o.sc)
	if sc.rowPart == nil {
		sc.rowPart, sc.rank1 = sc.rowDev, sc.rank1Dev
	}
	pc, wc := windowCols(ctx, p), windowCols(ctx, w)
	c := sc.c.take(sc.ws, pc, wc)
	row := sc.vec.floats(sc.ws, wc)
	sc.p, sc.w, sc.coef = p, w, row
	for l := 0; l < pc; l++ {
		// row l of C: c_l = p_l' W
		sc.l = l
		ctx.AllReduce(phase, row, gpu.Elem64, sc.rowPart)
		for j := 0; j < wc; j++ {
			c.Set(l, j, row[j])
		}
		bc := ctx.Broadcast(phase, wc, gpu.Elem64)
		// rank-1 update W -= p_l c_l
		ctx.Launch(phase, sc.rank1, bc)
	}
	return c
}

func (sc *Scratch) rowDev(d int, part []float64) gpu.Work {
	w := sc.w[d]
	pl := sc.p[d].Col(sc.l)
	la.GemvT(1, w, pl, 0, part)
	return gpu.GemvT(len(pl), w.Cols)
}

func (sc *Scratch) rank1Dev(d int) gpu.Work {
	w := sc.w[d]
	pl := sc.p[d].Col(sc.l)
	for j, cj := range sc.coef {
		la.Axpy(-cj, pl, w.Col(j))
	}
	return gpu.Rank1(len(pl), w.Cols)
}

// BOrthByName maps a flag value to a block-orthogonalization variant.
func BOrthByName(name string) (BOrth, error) {
	if b, ok := borthByName[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("ortho: unknown BOrth variant %q", name)
}

// borthByName holds BOrthByName's variants boxed once, as byName does.
var borthByName = map[string]BOrth{
	"CGS": BOrthCGS{}, "cgs": BOrthCGS{}, "BOrth-CGS": BOrthCGS{},
	"MGS": BOrthMGS{}, "mgs": BOrthMGS{}, "BOrth-MGS": BOrthMGS{},
}
