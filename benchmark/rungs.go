package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cagmres/internal/core"
	"cagmres/internal/dist"
	"cagmres/internal/graph"
	"cagmres/internal/la"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/ortho"
	"cagmres/internal/sparse"
)

// Rungs time one layer's public function at the workload's own shapes:
// the median of up to rungCalls calls after one warm-up call. A rung
// that costs more than rungBudget/rungCalls per call gets fewer calls,
// never fewer than rungMinCalls, so the traced run stays inside the
// driver's time limit on the tall matrices.
const (
	rungCalls    = 30
	rungMinCalls = 5
	rungBudget   = 600 * time.Millisecond
)

// rung times f; prep, when not nil, runs untimed before every call.
func rung(tr *tracer, parent int, name string, prep, f func()) float64 {
	if prep != nil {
		prep()
	}
	t0 := time.Now()
	f() // warm-up, and the estimate that sizes the rung
	calls := rungCalls
	if one := time.Since(t0); one > 0 {
		calls = min(rungCalls, max(rungMinCalls, int(rungBudget/one)))
	}
	id := tr.start(name, parent, 0, 0)
	defer tr.end(id)
	ds := make([]float64, calls)
	for i := range ds {
		if prep != nil {
			prep()
		}
		c := tr.start(name+" call", id, 0, 0)
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds()
		tr.end(c)
	}
	return median(ds)
}

// solveRungs measures every library rung at the shapes of e — its
// matrix, ordering, restart length and step size (S is 0 for a workload
// that never builds an s-step window) — and returns the median seconds
// of a solve without a telemetry sink.
func solveRungs(m *metricSet, tr *tracer, e *solveEnv) (float64, error) {
	if err := layerRungs(m, tr, e); err != nil {
		return 0, err
	}
	return telemetryRung(m, tr, e)
}

// layerRungs measures the matgen, graph, sparse, la, gpu, dist, ortho
// and core.prepare rungs.
func layerRungs(m *metricSet, tr *tracer, e *solveEnv) error {
	root := tr.start("rungs", 0, 0, 0)
	defer tr.end(root)
	a, ctx, n := e.a, e.ctx, e.a.Rows
	ordering, mLen, sLen := e.w.Ordering, e.w.M, e.w.S

	m.set("matgen.build_s", rung(tr, root, "matgen.ByName", nil, func() {
		_, _ = matgen.ByName(e.w.Matrix, e.w.Scale) // the name built this workload's matrix already
	}))
	m.set("matgen.nnz", float64(a.NNZ()))

	var perr error
	var p *core.Problem
	m.set("core.prepare_s", rung(tr, root, "core.NewProblem", nil, func() {
		p, perr = core.NewProblem(ctx, a, e.rhs[0], ordering, true)
	}))
	if perr != nil {
		return perr
	}

	if ordering == core.KWay {
		var part *graph.Partition
		m.set("graph.kway_s", rung(tr, root, "graph.KWay", nil, func() {
			part = graph.KWay(graph.FromMatrix(a), devices, 1)
		}))
		perm, _ := part.Order()
		m.set("sparse.permute_s", rung(tr, root, "sparse.CSR.Permute", nil, func() { a.Permute(perm) }))
	}
	// Balancing a balanced matrix does the same arithmetic, so one clone
	// serves every call.
	clone := a.Clone()
	m.set("sparse.balance_s", rung(tr, root, "sparse.Balance", nil, func() { sparse.Balance(clone) }))

	// Host kernels on the prepared (permuted, balanced) matrix.
	ell := sparse.ToELL(p.A)
	x, y := normalVector(n, 7), make([]float64, n)
	spmv := rung(tr, root, "sparse.ELL.MulVec", nil, func() { ell.MulVec(y, x) })
	m.set("sparse.spmv_s", spmv)
	m.set("sparse.spmv_gflops", 2*float64(p.A.NNZ())/spmv/1e9)
	// Computed, not measured: 8 B value + 4 B column index per stored
	// slot, one read of x and one write of y per row.
	m.set("sparse.spmv_bytes_computed", 12*float64(ell.Rows*ell.Width)+16*float64(n))
	m.set("sparse.ell_pad_ratio", 1/ell.PadRatio())

	nloc := 0
	for d := 0; d < p.Layout.NumDevices(); d++ {
		nloc = max(nloc, p.Layout.OwnCount(d))
	}
	rng := rand.New(rand.NewSource(11))
	randomDense := func(rows, cols int) *la.Dense {
		d := la.NewDense(rows, cols)
		for j := 0; j < cols; j++ {
			col := d.Col(j)
			for i := range col {
				col[i] = rng.NormFloat64()
			}
		}
		return d
	}
	dot := rung(tr, root, "la.Dot", nil, func() { la.Dot(x[:nloc], y[:nloc]) })
	m.set("la.dot_s", dot)
	m.set("la.dot_gflops", 2*float64(nloc)/dot/1e9)
	panel := randomDense(nloc, mLen)
	coef, yloc := normalVector(mLen, 8), make([]float64, nloc)
	m.set("la.gemv_s", rung(tr, root, "la.Gemv", nil, func() { la.Gemv(1, panel, coef, 0, yloc) }))

	m.set("gpu.launch_overhead_s", rung(tr, root, "gpu.Context.RunAll", nil, func() { ctx.RunAll(func(int) {}) }))

	// Distributed kernels. A solve distributes the matrix once at depth
	// 1 and, for CA-GMRES, once more at depth s.
	var a1, as *dist.Matrix
	m.set("dist.distribute_s", rung(tr, root, "dist.Distribute", nil, func() {
		a1 = dist.Distribute(ctx, p.A, p.Layout, 1)
		if sLen > 0 {
			as = dist.Distribute(ctx, p.A, p.Layout, sLen)
		}
	}))
	v := dist.NewVectors(ctx, p.Layout, mLen+1)
	for j := 0; j <= mLen; j++ {
		v.SetColFromHost(j, normalVector(n, int64(100+j)))
	}
	mpk1 := dist.NewMPK(a1)
	distSpMV := rung(tr, root, "dist.MPK.SpMV", nil, func() { mpk1.SpMV(v, 0, v, 1, core.PhaseSpMV) })
	m.set("dist.spmv_s", distSpMV)
	m.set("dist.dotcols_s", rung(tr, root, "dist.Vectors.DotCols", nil, func() { v.DotCols(0, 1, core.PhaseOrth) }))

	if sLen > 0 {
		s := sLen
		gram := la.NewDense(s+1, s+1)
		win := randomDense(nloc, s+1)
		m.set("la.gemm_tn_s", rung(tr, root, "la.GemmTN", nil, func() { la.GemmTN(1, win, win, 0, gram) }))
		c, out := randomDense(mLen, s), la.NewDense(nloc, s)
		m.set("la.gemm_nn_s", rung(tr, root, "la.GemmNN", nil, func() { la.GemmNN(1, panel, c, 0, out) }))
		r := la.Eye(s + 1)
		for j := 1; j <= s; j++ {
			r.Set(j-1, j, 1e-3) // near the identity, so repeated solves stay bounded
		}
		m.set("la.trsm_s", rung(tr, root, "la.TrsmRightUpper", nil, func() { la.TrsmRightUpper(win, r) }))

		var boundary, local float64
		for _, dm := range as.Dev {
			boundary += float64(dm.BoundaryNNZ())
			local += float64(dm.LocalNNZ())
		}
		m.set("dist.boundary_nnz_ratio", boundary/local)
		mpkS := dist.NewMPK(as)
		window := rung(tr, root, "dist.MPK.Generate", nil, func() { mpkS.Generate(v, 0, s, nil, core.PhaseMPK) })
		m.set("dist.mpk_window_s", window)
		m.set("dist.mpk_vs_spmv", window/(float64(s)*distSpMV))

		// Orthogonalization on random (well-conditioned) panels: the
		// kernels' time does not depend on the values, and CholQR
		// cannot fail on them.
		for j := 0; j <= mLen; j++ {
			v.SetColFromHost(j, normalVector(n, int64(200+j)))
		}
		half := mLen / 2
		orig := v.Window(half, half+s)
		var q []*la.Dense
		var rr *la.Dense
		var ferr error
		m.set("ortho.tsqr_s", rung(tr, root, "ortho.CholQR.Factor",
			func() { q = ortho.CloneWindow(orig) },
			func() { rr, ferr = ortho.CholQR{}.Factor(ctx, q, core.PhaseTSQR) }))
		if ferr != nil {
			return fmt.Errorf("ortho.CholQR on a random panel: %w", ferr)
		}
		m.set("ortho.orth_err", ortho.Measure(q, orig, rr).Orthogonality)
		prev := v.Window(0, half)
		m.set("ortho.borth_s", rung(tr, root, "ortho.BOrthCGS.Project",
			func() { q = ortho.CloneWindow(orig) },
			func() { ortho.BOrthCGS{}.Project(ctx, prev, q, core.PhaseBOrth) }))
	}
	return nil
}

// telemetryRung measures what an attached telemetry sink costs a solve:
// the same solves with a sink that discards and with none. It returns
// the median seconds of the solves with none.
func telemetryRung(m *metricSet, tr *tracer, e *solveEnv) (float64, error) {
	root := tr.start("rung core telemetry", 0, 0, 0)
	defer tr.end(root)
	p := e.p
	if p == nil {
		var err error
		if p, err = core.NewProblem(e.ctx, e.a, e.rhs[0], e.w.Ordering, true); err != nil {
			return 0, err
		}
	}
	sinks := []struct {
		name string
		sink obs.Sink
	}{{"solve, no sink", nil}, {"solve, discarding sink", obs.SinkFunc(func(obs.Record) {})}}
	var seconds [2][]float64
	for k := 0; k < min(len(e.rhs), 8); k++ {
		if err := p.SetB(e.rhs[k]); err != nil {
			return 0, err
		}
		for i, sk := range sinks {
			opts := e.w.options()
			opts.Telemetry = sk.sink
			s := tr.start(sk.name, root, 0, 0)
			t0 := time.Now()
			_, err := e.w.solve(p, opts)
			seconds[i] = append(seconds[i], time.Since(t0).Seconds())
			tr.end(s)
			if err != nil {
				return 0, err
			}
		}
	}
	m.set("core.telemetry_ratio", median(seconds[1])/median(seconds[0]))
	return median(seconds[0]), nil
}

// mmParseRung times parsing the inline MatrixMarket body the serve
// workload posts.
func mmParseRung(m *metricSet, tr *tracer, body string) {
	m.set("sparse.mm_parse_s", rung(tr, 0, "sparse.ReadMatrixMarket", nil, func() {
		_, _ = sparse.ReadMatrixMarket(strings.NewReader(body)) // WriteMatrixMarket produced it
	}))
}
