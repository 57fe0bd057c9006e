package ortho

import (
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// MGS is modified Gram-Schmidt: each column is orthogonalized against the
// previous columns one dot product at a time. Numerically the most stable
// Gram-Schmidt variant (error O(eps*kappa)) but each dot product is a
// global reduction, so a window of s+1 columns costs (s+1)(s+2) GPU-CPU
// transfers (Figure 10) — the latency-bound worst case on devices.
type MGS struct{}

// Name implements TSQR.
func (MGS) Name() string { return "MGS" }

// Factor implements TSQR.
func (MGS) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	c := windowCols(ctx, w)
	r := la.NewDense(c, c)
	var dot [1]float64
	for k := 0; k < c; k++ {
		projSq := 0.0 // accumulated ||r_{1:k-1,k}||^2, for breakdown detection
		for l := 0; l < k; l++ {
			// r_lk = v_l' v_k: local dots, one reduce round.
			ctx.AllReduce(phase, dot[:], gpu.Elem64, func(d int, part []float64) gpu.Work {
				vl, vk := w[d].Col(l), w[d].Col(k)
				part[0] = la.Dot(vl, vk)
				return gpu.Work{Flops: 2 * float64(len(vl)), Bytes: 16 * float64(len(vl))}
			})
			rlk := dot[0]
			r.Set(l, k, rlk)
			projSq += rlk * rlk
			// broadcast r_lk, local axpy v_k -= r_lk v_l
			bc := ctx.Broadcast(phase, 1, gpu.Elem64)
			ctx.Launch(phase, func(d int) gpu.Work {
				vl, vk := w[d].Col(l), w[d].Col(k)
				la.Axpy(-rlk, vl, vk)
				return gpu.Work{Flops: 2 * float64(len(vl)), Bytes: 24 * float64(len(vl))}
			}, bc)
		}
		// r_kk = ||v_k||: reduce, then broadcast for the scale.
		ssq := normSq(ctx, w, k, phase)
		rkk := math.Sqrt(ssq)
		r.Set(k, k, rkk)
		// Breakdown check relative to the original column norm
		// (Pythagoras: ||v_orig||^2 = ||r_{1:k-1,k}||^2 + r_kk^2).
		if rkk <= 1e-14*math.Sqrt(projSq+ssq) {
			return nil, ErrRankDeficient
		}
		scaleCol(ctx, w, k, 1/rkk, phase, ctx.Broadcast(phase, 1, gpu.Elem64))
	}
	return r, nil
}

// normSq returns the squared 2-norm of column k of the window: local dots,
// one reduce round.
func normSq(ctx *gpu.Context, w []*la.Dense, k int, phase string) float64 {
	var ssq [1]float64
	ctx.AllReduce(phase, ssq[:], gpu.Elem64, func(d int, part []float64) gpu.Work {
		vk := w[d].Col(k)
		part[0] = la.Dot(vk, vk)
		return gpu.Work{Flops: 2 * float64(len(vk)), Bytes: 8 * float64(len(vk))}
	})
	return ssq[0]
}

// scaleCol multiplies column k of the window by alpha once the broadcast
// that carried the scalar has landed.
func scaleCol(ctx *gpu.Context, w []*la.Dense, k int, alpha float64, phase string, bc gpu.StreamEvent) {
	ctx.Launch(phase, func(d int) gpu.Work {
		vk := w[d].Col(k)
		la.Scal(alpha, vk)
		return gpu.Work{Flops: float64(len(vk)), Bytes: 16 * float64(len(vk))}
	}, bc)
}

// CGS is classical Gram-Schmidt with the fused norm: the projection
// coefficients r = V' v and the squared norm of v are reduced in the same
// round, and the post-update norm comes from the Pythagorean identity
// ||v - Vr||^2 = ||v||^2 - ||r||^2 (Stathopoulos & Wu; the paper's fused
// CGS footnote). That brings the count to 2 transfers per column,
// 2(s+1) per window — Figure 10's entry. When cancellation makes the
// identity untrustworthy the norm is recomputed with one extra round.
//
// The BLAS-2 projection gives CGS much better device efficiency than MGS,
// at the price of error O(eps*kappa^s): inside CA-GMRES it frequently
// needs reorthogonalization (the paper's "2xCGS" rows).
type CGS struct{}

// Name implements TSQR.
func (CGS) Name() string { return "CGS" }

// Factor implements TSQR.
func (CGS) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	c := windowCols(ctx, w)
	r := la.NewDense(c, c)
	fused := make([]float64, c+1)
	for k := 0; k < c; k++ {
		// Local fused projection+norm [V'v; ||v||^2], one reduce round.
		sum := fused[:k+1]
		ctx.AllReduce(phase, sum, gpu.Elem64, func(d int, part []float64) gpu.Work {
			vk := w[d].Col(k)
			if k > 0 {
				la.GemvT(1, w[d].ColView(0, k), vk, 0, part[:k])
			}
			part[k] = la.Dot(vk, vk)
			rows := float64(len(vk))
			return gpu.Work{Flops: 2 * rows * float64(k+1), Bytes: 8 * rows * float64(k+2)}
		})
		proj := sum[:k]
		vnorm2 := sum[k]
		copy(r.Col(k), proj)
		// Pythagorean post-update norm with a cancellation guard.
		rnorm2 := la.Dot(proj, proj)
		newNorm2 := vnorm2 - rnorm2
		needRecompute := newNorm2 <= 0.5*vnorm2*1e-8 || newNorm2 < 0

		// Broadcast coefficients, local update. The host-side Pythagorean
		// bookkeeping above overlaps with the device-side update.
		bc := ctx.Broadcast(phase, k+1, gpu.Elem64)
		ctx.Launch(phase, func(d int) gpu.Work {
			vk := w[d].Col(k)
			if k > 0 {
				la.Gemv(-1, w[d].ColView(0, k), proj, 1, vk)
			}
			rows := float64(len(vk))
			return gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+2)}
		}, bc)

		var rkk float64
		if needRecompute {
			// Cancellation: one extra reduce for the true norm.
			rkk = math.Sqrt(normSq(ctx, w, k, phase))
			// The scale still rides on the already-counted broadcast of
			// the next column in spirit; charge one explicit round to
			// stay honest.
			bc = ctx.Broadcast(phase, 1, gpu.Elem64)
		} else {
			rkk = math.Sqrt(newNorm2)
			// rkk was derived host-side from already-communicated data
			// and travels with the coefficient broadcast above; no extra
			// round.
		}
		r.Set(k, k, rkk)
		if rkk <= 1e-14*math.Sqrt(vnorm2) || math.IsNaN(rkk) {
			return nil, ErrRankDeficient
		}
		scaleCol(ctx, w, k, 1/rkk, phase, bc)
	}
	return r, nil
}
