package bench

import (
	"math"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/matgen"
	"cagmres/internal/ortho"
)

// measuringTSQR wraps a strategy, recording the three Figure-13 error
// norms of every factorization the solver performs.
type measuringTSQR struct {
	inner   ortho.TSQR
	Samples []ortho.Errors
}

func (m *measuringTSQR) Name() string { return m.inner.Name() }

func (m *measuringTSQR) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	orig := ortho.CloneWindow(w)
	r, err := m.inner.Factor(ctx, w, phase)
	if err != nil {
		return nil, err
	}
	m.Samples = append(m.Samples, ortho.Measure(w, orig, r))
	return r, nil
}

// fig13Row aggregates one strategy's errors inside CA-GMRES(s, m).
type fig13Row struct {
	Strategy string
	// Failed is set when the strategy could not complete (e.g. CholQR on
	// an indefinite Gram matrix) even after the 2x retry.
	Failed bool
	// Reorthogonalized marks strategies that needed the 2x pass to run,
	// the paper's "2x" prefix.
	Reorthogonalized bool
	// Avg/Min/Max of each error norm across all TSQR invocations.
	OrthAvg, OrthMin, OrthMax float64
	FactAvg, FactMin, FactMax float64
	ElemAvg, ElemMin, ElemMax float64
	Samples                   int
}

// fig13Result holds the panel configurations of the figure.
type fig13Result struct {
	// Rows20 uses CA-GMRES(20, 30) and Rows30 uses CA-GMRES(30, 30),
	// the two panels of Figure 13 (Newton basis, as the paper runs).
	Rows20 []fig13Row
	Rows30 []fig13Row
	// RowsMonomial repeats the (20, 30) panel with the monomial basis.
	// The synthetic G3 analogue yields better-conditioned Newton windows
	// than the original matrix (whose kappa(B) is 8.5e9, Figure 12), so
	// this extra panel restores the ill-conditioned regime in which the
	// paper's kappa^2 amplification of CholQR/SVQR is visible.
	RowsMonomial []fig13Row
}

// fig13 reproduces the TSQR error study inside CA-GMRES on the
// G3_circuit analogue with one simulated GPU: for each strategy, the
// average, minimum and maximum of ||I - Q'Q||, ||V - QR||/||V|| and the
// element-wise error across every TSQR call of the solve.
func fig13(cfg Config) *fig13Result {
	cfg.defaults()
	res := &fig13Result{}
	res.Rows20 = fig13Panel(cfg, 20, 30, "newton")
	res.Rows30 = fig13Panel(cfg, 30, 30, "newton")
	res.RowsMonomial = fig13Panel(cfg, 20, 30, "monomial")
	return res
}

func fig13Panel(cfg Config, s, m int, basis string) []fig13Row {
	mat := benchG3(cfg.Scale)
	b := make([]float64, mat.A.Rows)
	for i := range b {
		b[i] = 1
	}
	cfg.printf("Figure 13: TSQR errors in CA-GMRES(%d, %d), %s basis, %s, 1 device\n", s, m, basis, mat.Name)
	cfg.printf("%-9s %1s %34s %12s %12s %8s\n", "strategy", "", "||I-Q'Q|| avg [min, max]", "||V-QR||/V", "elemwise", "samples")
	var rows []fig13Row
	for _, base := range ortho.All() {
		row := runFig13Strategy(cfg, mat, b, base, false, s, m, basis)
		if row.Failed {
			// Retry with reorthogonalization, the paper's "2x" fallback
			// (it reports 2xCGS for this matrix).
			row = runFig13Strategy(cfg, mat, b, ortho.Reorth{Inner: base}, true, s, m, basis)
		}
		rows = append(rows, row)
		mark := " "
		if row.Reorthogonalized {
			mark = "2"
		}
		if row.Failed {
			cfg.printf("%-9s %s %34s %12s %12s %8s\n", row.Strategy, mark, "FAILED", "-", "-", "-")
		} else {
			cfg.printf("%-9s %s %9.2e [%9.2e, %9.2e] %12.3e %12.3e %8d\n",
				row.Strategy, mark, row.OrthAvg, row.OrthMin, row.OrthMax,
				row.FactAvg, row.ElemAvg, row.Samples)
		}
	}
	return rows
}

func runFig13Strategy(cfg Config, mat *matgen.Matrix, b []float64, strat ortho.TSQR, reorth bool, s, m int, basis string) fig13Row {
	ctx := cfg.newContext(1, cfg.Profile)
	p, err := core.NewProblem(ctx, mat.A, b, core.KWay, true)
	if err != nil {
		panic(err)
	}
	meas := &measuringTSQR{inner: strat}
	// A tighter tolerance than the paper's 1e-4 convergence target keeps
	// the solver iterating long enough to sample many TSQR windows (the
	// figure's error bars); the orthogonalization error statistics are
	// unaffected by the stopping criterion.
	res, err := core.CAGMRES(p, core.Options{
		M: m, S: s, Tol: 1e-10, MaxRestarts: cfg.MaxRestarts,
		Ortho: "CholQR", OrthoImpl: meas, Basis: basis, Precision: cfg.Precision,
	})
	row := fig13Row{Strategy: strat.Name(), Reorthogonalized: reorth}
	// A strategy that could not factor a window at depth s failed at s,
	// even when the solver got past it at a smaller step.
	if err != nil || res.StepHalvings > 0 || len(meas.Samples) == 0 {
		row.Failed = true
		return row
	}
	row.Samples = len(meas.Samples)
	row.OrthMin, row.FactMin, row.ElemMin = math.Inf(1), math.Inf(1), math.Inf(1)
	for _, e := range meas.Samples {
		row.OrthAvg += e.Orthogonality
		row.FactAvg += e.Factorization
		row.ElemAvg += e.ElementWise
		row.OrthMin = math.Min(row.OrthMin, e.Orthogonality)
		row.FactMin = math.Min(row.FactMin, e.Factorization)
		row.ElemMin = math.Min(row.ElemMin, e.ElementWise)
		row.OrthMax = math.Max(row.OrthMax, e.Orthogonality)
		row.FactMax = math.Max(row.FactMax, e.Factorization)
		row.ElemMax = math.Max(row.ElemMax, e.ElementWise)
	}
	n := float64(len(meas.Samples))
	row.OrthAvg /= n
	row.FactAvg /= n
	row.ElemAvg /= n
	return row
}
