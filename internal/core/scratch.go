package core

import (
	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// cycleScratch holds the per-restart work buffers of the solvers' hot
// loops: the current Hessenberg column, the host-side result of the fused
// CGS reduction, the incremental Givens solver, a CA window's views and
// host matrices and orthoLoss's Gram matrices. One is built per solve
// attempt — the float buffers in the host memory of the attempt's
// workspace — and every restart cycle of the attempt reuses it.
//
// It also owns the device bodies of core's own forks, built once with it:
// a call sets its arguments in cgs or vec and passes the prebuilt body, so
// a fork wraps nothing per call. The scratch belongs to one attempt, whose
// context runs one fork at a time.
type cycleScratch struct {
	hcol []float64 // m+2 entries: the Hessenberg column being built
	sum  []float64 // m+2 entries: host-side combine of device partials
	giv  *la.GivensQR

	ws    *gpu.Workspace
	m, s  int
	grams []float64 // 2(m+1)^2 entries, taken from ws on orthoLoss's first call
	hess  []float64 // 3(m+1)(s+1) entries, taken from ws on updateHessenberg's first call

	// prev and win are per-device views of V[:, 0:q] and of a window (or
	// whatever basis prefix orthoLoss measures), in views' memory.
	prev, win []*la.Dense
	views     []la.Dense

	cgs struct { // arnoldiCGS's step: basis v, new column k+1
		v *dist.Vectors
		k int
	}
	vec struct { // negateInto and copyScaled: dst column jd from src column js
		src, dst *dist.Vectors
		js, jd   int
		alpha    float64
	}
	cgsPartial             func(d int, part []float64) gpu.Work
	cgsUpdate, negate, cpy func(d int) gpu.Work
}

// newScratch builds the scratch for restart length m, window length s and
// ng devices in ws.
func newScratch(ws *gpu.Workspace, m, s, ng int) *cycleScratch {
	sc := &cycleScratch{
		hcol:  ws.Floats(gpu.HostDevice, m+2),
		sum:   ws.Floats(gpu.HostDevice, m+2),
		ws:    ws,
		m:     m,
		s:     s,
		prev:  make([]*la.Dense, ng),
		win:   make([]*la.Dense, ng),
		views: make([]la.Dense, 2*ng),
	}
	for d := range ng {
		sc.prev[d], sc.win[d] = &sc.views[d], &sc.views[ng+d]
	}
	sc.cgsPartial, sc.cgsUpdate = sc.cgsPartialDev, sc.cgsUpdateDev
	sc.negate, sc.cpy = sc.negateDev, sc.copyScaledDev
	return sc
}

// givens returns the scratch's incremental Givens solver, reset for a new
// restart cycle with initial residual beta.
func (sc *cycleScratch) givens(m int, beta float64) *la.GivensQR {
	if sc.giv == nil || sc.giv.Size() < m {
		sc.giv = la.NewGivensQR(m, beta)
		return sc.giv
	}
	sc.giv.Reset(beta)
	return sc.giv
}

// gram returns orthoLoss's two c x c matrices (c <= m+1), the first zeroed.
// A solve nobody measures never takes their memory.
func (sc *cycleScratch) gram(c int) (g, tmp la.Dense) {
	if sc.grams == nil {
		sc.grams = sc.ws.Floats(gpu.HostDevice, 2*(sc.m+1)*(sc.m+1))
	}
	half := len(sc.grams) / 2
	g = la.Dense{Rows: c, Cols: c, Stride: c, Data: sc.grams[:c*c]}
	tmp = la.Dense{Rows: c, Cols: c, Stride: c, Data: sc.grams[half : half+c*c]}
	g.Zero()
	return g, tmp
}

// hessenberg returns updateHessenberg's three zeroed matrices for a
// window of steps <= s columns ending at row rows <= m+1: G (rows x
// steps+1), AW (rows x steps) and M (rows x steps-1). A GMRES solve never
// takes their memory.
func (sc *cycleScratch) hessenberg(rows, steps int) (g, aw, msub la.Dense) {
	if sc.hess == nil {
		sc.hess = sc.ws.Floats(gpu.HostDevice, 3*(sc.m+1)*(sc.s+1))
	}
	third := len(sc.hess) / 3
	dense := func(i, cols int) la.Dense {
		x := la.Dense{Rows: rows, Cols: cols, Stride: rows, Data: sc.hess[i*third : i*third+rows*cols]}
		x.Zero()
		return x
	}
	return dense(0, steps+1), dense(1, steps), dense(2, steps-1)
}

// view points dst[d] at columns [j0, j1) of v's block on device d and
// returns dst: Vectors.Window in the scratch's memory.
func view(dst []*la.Dense, v *dist.Vectors, j0, j1 int) []*la.Dense {
	for d, local := range v.Local {
		*dst[d] = *local.ColView(j0, j1)
	}
	return dst
}

// negateInto sets column jr := column jb - column jr on every device
// (used to turn A*x into the residual b - A*x).
func (sc *cycleScratch) negateInto(w *dist.Vectors, jr, jb int) {
	sc.vec.dst, sc.vec.jd, sc.vec.js = w, jr, jb
	w.Ctx.Launch(PhaseVec, sc.negate)
}

func (sc *cycleScratch) negateDev(d int) gpu.Work {
	r := sc.vec.dst.Local[d].Col(sc.vec.jd)
	b := sc.vec.dst.Local[d].Col(sc.vec.js)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return gpu.Sub(len(r))
}

// copyScaled sets dst column jd := alpha * src column js across devices.
func (sc *cycleScratch) copyScaled(src *dist.Vectors, js int, dst *dist.Vectors, jd int, alpha float64) {
	sc.vec.src, sc.vec.js, sc.vec.dst, sc.vec.jd, sc.vec.alpha = src, js, dst, jd, alpha
	src.Ctx.Launch(PhaseVec, sc.cpy)
}

func (sc *cycleScratch) copyScaledDev(d int) gpu.Work {
	s := sc.vec.src.Local[d].Col(sc.vec.js)
	t := sc.vec.dst.Local[d].Col(sc.vec.jd)
	alpha := sc.vec.alpha
	for i := range s {
		t[i] = alpha * s[i]
	}
	return gpu.Scale(len(s))
}
