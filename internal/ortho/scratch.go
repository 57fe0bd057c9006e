package ortho

import (
	"fmt"
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// heap is the memory of the scratch a zero-value strategy builds for each
// call: what that call returns is the caller's to keep.
var heap gpu.Workspace

// Scratch is the per-attempt state of the strategies bound to it: the
// host matrices a window fills — the Gram matrix, R, BOrth's C and the
// column sweeps' host vectors — taken from one gpu.Workspace, and one
// device body per kernel the strategies fork, built on the scratch's
// first use of it (an attempt builds only the bodies of the strategies it
// runs). A call sets its fork's arguments in the scratch and passes the
// prebuilt body, so a warm window of a bound strategy allocates nothing.
//
// A solve attempt builds one with NewScratch and binds its strategies
// with Bind and BindBOrth. The attempt's context runs one fork at a
// time, so one set of arguments serves every strategy bound to the
// scratch, and the scratch must not be shared beyond that attempt. A
// zero-value strategy runs the same bodies over a scratch of its own,
// built on the heap for each call.
type Scratch struct {
	ws *gpu.Workspace
	// gram is CholQR's and SVQR's Gram matrix, r the R a TSQR returns, c
	// the C a BOrth returns, vec a column sweep's host vector (CGS's fused
	// projection and norm, BOrth-MGS's row of C) and one a reduced
	// scalar. pass is MixedCholQR2's two-pass storage.
	gram, r, c, vec slot
	one             [1]float64
	pass            twoPass

	// The arguments of the fork in flight, which the bodies read.
	w, p  []*la.Dense
	m     *la.Dense // the R of a triangular solve, the C of a BOrth-CGS update
	k, l  int       // the column being orthogonalized; the previous column MGS and BOrth-MGS sweep
	alpha float64   // a column scale, or MGS's -r_lk
	coef  []float64 // CGS's projection coefficients, BOrth-MGS's row of C
	fp32  bool      // the Gram or projection kernel runs in single precision

	gramPart, cgsPart, projPart, normPart, dotPart, tnPart, rowPart func(d int, part []float64) gpu.Work
	trsm, update, scale, axpy, nnUpdate, rank1                      func(d int) gpu.Work
}

// NewScratch builds a scratch in ws, sized for windows of up to cols
// columns projected against up to prev columns; a larger window grows it
// from ws. What a bound strategy returns, SVQR's R excepted, lives in ws.
func NewScratch(ws *gpu.Workspace, cols, prev int) *Scratch {
	sc := &Scratch{ws: ws, pass: twoPass{ws: ws}}
	sc.gram.take(ws, cols, cols)
	sc.r.take(ws, cols, cols)
	sc.c.take(ws, prev, cols)
	sc.vec.floats(ws, cols+1)
	return sc
}

// use returns sc, or for a zero-value strategy (nil) a scratch on the heap.
func use(sc *Scratch) *Scratch {
	if sc == nil {
		return NewScratch(&heap, 0, 0)
	}
	return sc
}

// Bind returns t running on the scratch. The R a bound strategy returns
// lives in the scratch and stays valid until its next Factor. Strategies
// that allocate in their host factorizations anyway (CAQR) and types from
// outside the package come back unchanged and run as they would unbound;
// a Reorth is rebuilt around its bound inner strategy, with two-pass
// storage of its own. t itself is not modified.
func (sc *Scratch) Bind(t TSQR) TSQR {
	switch t := t.(type) {
	case CholQR:
		t.sc = sc
		return t
	case SVQR:
		t.sc = sc
		return t
	case CGS:
		t.sc = sc
		return t
	case MGS:
		t.sc = sc
		return t
	case CGSUnfused:
		t.sc = sc
		return t
	case MixedCholQR:
		t.sc = sc
		return t
	case Reorth:
		return Reorth{Inner: sc.Bind(t.Inner), pass: &twoPass{ws: sc.ws}}
	}
	return t
}

// BindBOrth returns b running on the scratch. The C a bound BOrth
// returns lives in the scratch and stays valid until its next Project;
// types from outside the package come back unchanged.
func (sc *Scratch) BindBOrth(b BOrth) BOrth {
	switch b := b.(type) {
	case BOrthCGS:
		b.sc = sc
		return b
	case BOrthMGS:
		b.sc = sc
		return b
	}
	return b
}

// slot is one host matrix or vector of a scratch: memory taken from the
// workspace once and reshaped by every call.
type slot struct {
	buf []float64
	m   la.Dense
}

// floats returns the slot's first n floats, zeroed, growing it from ws
// when it is too small.
func (s *slot) floats(ws *gpu.Workspace, n int) []float64 {
	if len(s.buf) < n {
		s.buf = ws.Floats(gpu.HostDevice, n)
	}
	x := s.buf[:n:n]
	clear(x)
	return x
}

// take returns the slot as a zeroed rows x cols matrix.
func (s *slot) take(ws *gpu.Workspace, rows, cols int) *la.Dense {
	s.m = la.Dense{Rows: rows, Cols: cols, Stride: rows, Data: s.floats(ws, rows*cols)}
	return &s.m
}

// twoPass is the storage of a strategy that factors a window twice (the
// 2x rows, MixedCholQR2): the first pass's R1, which the second pass's
// factorization would overwrite, and R = R2 R1 — three distinct slots
// with the second pass's own R.
type twoPass struct {
	ws    *gpu.Workspace
	r1, r slot
}

// keep copies the first pass's R into the two-pass storage.
func (tp *twoPass) keep(r1 *la.Dense) *la.Dense {
	k := tp.r1.take(tp.ws, r1.Rows, r1.Cols)
	k.CopyFrom(r1)
	return k
}

// combine returns R = R2 R1 (both upper triangular). The small product
// runs on the host while the devices continue past the second
// factorization.
func (tp *twoPass) combine(ctx *gpu.Context, phase string, r2, r1 *la.Dense) (*la.Dense, error) {
	c := r1.Rows
	out := tp.r.take(tp.ws, c, c)
	la.GemmNN(1, r2, r1, 0, out)
	ctx.HostComputeOn(phase, float64(c*c*c)/3)
	return finite(out)
}

// finite returns r, or a rank-deficiency error and no R when r holds a
// NaN or an infinity: a window that did not factor is never a success.
func finite(r *la.Dense) (*la.Dense, error) {
	for j := 0; j < r.Cols; j++ {
		for _, x := range r.Col(j) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("%w: non-finite R", ErrRankDeficient)
			}
		}
	}
	return r, nil
}

// normSq returns the squared 2-norm of column k of the window sc.w: local
// dots, one reduce round.
func (sc *Scratch) normSq(ctx *gpu.Context, k int, phase string) float64 {
	if sc.normPart == nil {
		sc.normPart = sc.normDev
	}
	sc.k = k
	ctx.AllReduce(phase, sc.one[:], gpu.Elem64, sc.normPart)
	return sc.one[0]
}

func (sc *Scratch) normDev(d int, part []float64) gpu.Work {
	vk := sc.w[d].Col(sc.k)
	part[0] = la.Dot(vk, vk)
	return gpu.Work{Flops: 2 * float64(len(vk)), Bytes: 8 * float64(len(vk))}
}

// scaleCol multiplies column k of the window sc.w by alpha once the
// broadcast that carried the scalar has landed.
func (sc *Scratch) scaleCol(ctx *gpu.Context, k int, alpha float64, phase string, bc gpu.StreamEvent) {
	if sc.scale == nil {
		sc.scale = sc.scaleDev
	}
	sc.k, sc.alpha = k, alpha
	ctx.Launch(phase, sc.scale, bc)
}

func (sc *Scratch) scaleDev(d int) gpu.Work {
	vk := sc.w[d].Col(sc.k)
	la.Scal(sc.alpha, vk)
	return gpu.Work{Flops: float64(len(vk)), Bytes: 16 * float64(len(vk))}
}

// updateDev is CGS's update of column k on device d: v_k -= V_{0:k} coef.
func (sc *Scratch) updateDev(d int) gpu.Work {
	w, k := sc.w[d], sc.k
	vk := w.Col(k)
	if k > 0 {
		la.Gemv(-1, w.ColView(0, k), sc.coef, 1, vk)
	}
	rows := float64(len(vk))
	return gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+2)}
}
