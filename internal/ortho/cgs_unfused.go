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
type CGSUnfused struct{}

// Name implements TSQR.
func (CGSUnfused) Name() string { return "CGS-unfused" }

// Factor implements TSQR.
func (CGSUnfused) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	c := windowCols(ctx, w)
	r := la.NewDense(c, c)
	for k := 0; k < c; k++ {
		if k > 0 {
			// r_{1:k-1,k} := V' v_k (reduce + broadcast).
			proj := r.Col(k)[:k]
			ctx.AllReduce(phase, proj, gpu.Elem64, func(d int, part []float64) gpu.Work {
				vk := w[d].Col(k)
				la.GemvT(1, w[d].ColView(0, k), vk, 0, part)
				rows := float64(len(vk))
				return gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+1)}
			})
			bc := ctx.Broadcast(phase, k, gpu.Elem64)
			ctx.Launch(phase, func(d int) gpu.Work {
				vk := w[d].Col(k)
				la.Gemv(-1, w[d].ColView(0, k), proj, 1, vk)
				rows := float64(len(vk))
				return gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+2)}
			}, bc)
		}
		// r_kk := ||v_k|| recomputed honestly (reduce + broadcast).
		rkk := math.Sqrt(normSq(ctx, w, k, phase))
		r.Set(k, k, rkk)
		if k > 0 && rkk <= 1e-14*la.Nrm2(r.Col(k)[:k]) || rkk == 0 {
			return nil, ErrRankDeficient
		}
		scaleCol(ctx, w, k, 1/rkk, phase, ctx.Broadcast(phase, 1, gpu.Elem64))
	}
	return r, nil
}
