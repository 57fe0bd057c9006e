package ortho

import (
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// CGSUnfused is classical Gram-Schmidt exactly as the paper's Figure 9
// pseudocode writes it: per column, one reduce+broadcast pair for the
// projection coefficients and a second pair for the post-update norm —
// 4(s+1) transfers per window. The default CGS strategy implements the
// fused variant of the paper's footnote 5 (norm reduced together with
// the projections, post-update norm via the Pythagorean identity), which
// halves that to 2(s+1); this type exists so the fusion's worth can be
// measured (see `experiments -fig ablation`) and its stability compared.
type CGSUnfused struct {
	sc *Scratch // bound: the attempt's; nil: one on the heap per call
}

// Name implements TSQR.
func (CGSUnfused) Name() string { return "CGS-unfused" }

// Factor implements TSQR.
func (q CGSUnfused) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	sc := use(q.sc)
	if sc.projPart == nil {
		sc.projPart, sc.update = sc.projDev, sc.updateDev
	}
	c := windowCols(ctx, w)
	r := sc.r.take(sc.ws, c, c)
	sc.w = w
	for k := 0; k < c; k++ {
		if k > 0 {
			// r_{1:k-1,k} := V' v_k (reduce + broadcast).
			proj := r.Col(k)[:k]
			sc.k = k
			ctx.AllReduce(phase, proj, gpu.Elem64, sc.projPart)
			bc := ctx.Broadcast(phase, k, gpu.Elem64)
			sc.coef = proj
			ctx.Launch(phase, sc.update, bc)
		}
		// r_kk := ||v_k|| recomputed honestly (reduce + broadcast).
		rkk := math.Sqrt(sc.normSq(ctx, k, phase))
		r.Set(k, k, rkk)
		if k > 0 && rkk <= 1e-14*la.Nrm2(r.Col(k)[:k]) || rkk == 0 {
			return nil, ErrRankDeficient
		}
		sc.scaleCol(ctx, k, 1/rkk, phase, ctx.Broadcast(phase, 1, gpu.Elem64))
	}
	return finite(r)
}

func (sc *Scratch) projDev(d int, part []float64) gpu.Work {
	w, k := sc.w[d], sc.k
	vk := w.Col(k)
	la.GemvT(1, w.ColView(0, k), vk, 0, part)
	return gpu.GemvT(len(vk), k)
}
