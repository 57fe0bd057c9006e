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
type MGS struct {
	sc *Scratch // bound: the attempt's; nil: one on the heap per call
}

// Name implements TSQR.
func (MGS) Name() string { return "MGS" }

// Factor implements TSQR.
func (q MGS) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	sc := use(q.sc)
	if sc.dotPart == nil {
		sc.dotPart, sc.axpy = sc.dotDev, sc.axpyDev
	}
	c := windowCols(ctx, w)
	r := sc.r.take(sc.ws, c, c)
	sc.w = w
	for k := 0; k < c; k++ {
		projSq := 0.0 // accumulated ||r_{1:k-1,k}||^2, for breakdown detection
		for l := 0; l < k; l++ {
			// r_lk = v_l' v_k: local dots, one reduce round.
			sc.k, sc.l = k, l
			ctx.AllReduce(phase, sc.one[:], gpu.Elem64, sc.dotPart)
			rlk := sc.one[0]
			r.Set(l, k, rlk)
			projSq += rlk * rlk
			// broadcast r_lk, local axpy v_k -= r_lk v_l
			bc := ctx.Broadcast(phase, 1, gpu.Elem64)
			sc.alpha = -rlk
			ctx.Launch(phase, sc.axpy, bc)
		}
		// r_kk = ||v_k||: reduce, then broadcast for the scale.
		ssq := sc.normSq(ctx, k, phase)
		rkk := math.Sqrt(ssq)
		r.Set(k, k, rkk)
		// Breakdown check relative to the original column norm
		// (Pythagoras: ||v_orig||^2 = ||r_{1:k-1,k}||^2 + r_kk^2).
		if rkk <= 1e-14*math.Sqrt(projSq+ssq) {
			return nil, ErrRankDeficient
		}
		sc.scaleCol(ctx, k, 1/rkk, phase, ctx.Broadcast(phase, 1, gpu.Elem64))
	}
	return finite(r)
}

func (sc *Scratch) dotDev(d int, part []float64) gpu.Work {
	vl, vk := sc.w[d].Col(sc.l), sc.w[d].Col(sc.k)
	part[0] = la.Dot(vl, vk)
	return gpu.Work{Flops: 2 * float64(len(vl)), Bytes: 16 * float64(len(vl))}
}

func (sc *Scratch) axpyDev(d int) gpu.Work {
	vl, vk := sc.w[d].Col(sc.l), sc.w[d].Col(sc.k)
	la.Axpy(sc.alpha, vl, vk)
	return gpu.Work{Flops: 2 * float64(len(vl)), Bytes: 24 * float64(len(vl))}
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
type CGS struct {
	sc *Scratch // bound: the attempt's; nil: one on the heap per call
}

// Name implements TSQR.
func (CGS) Name() string { return "CGS" }

// Factor implements TSQR.
func (q CGS) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	sc := use(q.sc)
	if sc.cgsPart == nil {
		sc.cgsPart, sc.update = sc.cgsDev, sc.updateDev
	}
	c := windowCols(ctx, w)
	r := sc.r.take(sc.ws, c, c)
	fused := sc.vec.floats(sc.ws, c+1)
	sc.w = w
	for k := 0; k < c; k++ {
		// Local fused projection+norm [V'v; ||v||^2], one reduce round.
		sum := fused[:k+1]
		sc.k = k
		ctx.AllReduce(phase, sum, gpu.Elem64, sc.cgsPart)
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
		sc.coef = proj
		ctx.Launch(phase, sc.update, bc)

		var rkk float64
		if needRecompute {
			// Cancellation: one extra reduce for the true norm.
			rkk = math.Sqrt(sc.normSq(ctx, k, phase))
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
		sc.scaleCol(ctx, k, 1/rkk, phase, bc)
	}
	return finite(r)
}

func (sc *Scratch) cgsDev(d int, part []float64) gpu.Work {
	w, k := sc.w[d], sc.k
	vk := w.Col(k)
	if k > 0 {
		la.GemvT(1, w.ColView(0, k), vk, 0, part[:k])
	}
	part[k] = la.Dot(vk, vk)
	rows := float64(len(vk))
	return gpu.Work{Flops: 2 * rows * float64(k+1), Bytes: 8 * rows * float64(k+2)}
}
