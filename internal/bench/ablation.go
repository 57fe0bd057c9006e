package bench

import (
	"cagmres/internal/core"
	"cagmres/internal/matgen"
	"cagmres/internal/ortho"
)

// Ablation studies for the design choices DESIGN.md calls out: where the
// CA advantage actually comes from (latency), what the Newton basis buys
// (stability at large s), what reordering buys (halo size), and what the
// mixed-precision Gram kernel trades (volume vs orthogonality).

// ablationLatencyRow reports CA-GMRES's speedup over GMRES under one
// scaled PCIe latency.
type ablationLatencyRow struct {
	LatencyScale float64
	GMRESPerRes  float64
	CAPerRes     float64
	Speedup      float64
}

// ablationLatency sweeps the PCIe latency (and the kernel launch overhead
// with it) of the profile's cost model and measures the CA-GMRES(10, 30)
// speedup over GMRES(30) on the G3_circuit analogue; both arms run on the
// scaled machine.
// The entire communication-avoiding advantage should track the latency:
// at near-zero latency CA-GMRES's extra work makes it roughly break even,
// and the speedup grows monotonically as transfers get more expensive.
func ablationLatency(cfg Config) []ablationLatencyRow {
	cfg.defaults()
	mat := benchG3(cfg.Scale)
	b := onesRHS(mat.A.Rows)
	var out []ablationLatencyRow
	cfg.printf("Ablation: CA speedup vs PCIe latency (G3_circuit, 3 devices)\n")
	cfg.printf("%12s %12s %12s %10s\n", "latency x", "gmres ms", "ca ms", "speedup")
	for _, scale := range []float64{0.01, 0.1, 1, 10} {
		prof := cfg.Profile
		prof.Model.Latency *= scale
		prof.Model.KernelLaunch *= scale

		ctxG := cfg.newContext(cfg.MaxDevices, prof)
		pg, err := core.NewProblem(ctxG, mat.A, b, core.KWay, true)
		if err != nil {
			panic(err)
		}
		rg, err := core.GMRES(pg, core.Options{M: 30, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CGS"})
		if err != nil {
			panic(err)
		}

		ctxC := cfg.newContext(cfg.MaxDevices, prof)
		pc, err := core.NewProblem(ctxC, mat.A, b, core.KWay, true)
		if err != nil {
			panic(err)
		}
		res, err := core.CAGMRES(pc, core.Options{M: 30, S: 10, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CholQR", Precision: cfg.Precision})
		if err != nil {
			panic(err)
		}
		row := ablationLatencyRow{
			LatencyScale: scale,
			GMRESPerRes:  perRestart(rg),
			CAPerRes:     perRestart(res),
		}
		if row.CAPerRes > 0 {
			row.Speedup = row.GMRESPerRes / row.CAPerRes
		}
		out = append(out, row)
		cfg.printf("%12.2f %12.3f %12.3f %10.2f\n",
			scale, ms(row.GMRESPerRes), ms(row.CAPerRes), row.Speedup)
	}
	return out
}

// ablationBasisRow reports one basis configuration's outcome.
type ablationBasisRow struct {
	Basis     string
	S         int
	Converged bool
	Failed    bool
	Restarts  int
}

// ablationBasis compares monomial vs Newton bases across step sizes on
// the cant analogue with plain CholQR (no reorthogonalization): the
// monomial basis is expected to stop factorizing once s
// is large while the Newton basis keeps going — the design reason the
// solver harvests Ritz shifts at all.
func ablationBasis(cfg Config) []ablationBasisRow {
	cfg.defaults()
	mat := benchCant(cfg.Scale)
	b := onesRHS(mat.A.Rows)
	var out []ablationBasisRow
	cfg.printf("Ablation: basis choice vs step size (cant, plain CholQR)\n")
	cfg.printf("%-9s %4s %10s %8s %8s\n", "basis", "s", "converged", "failed", "rest")
	for _, basis := range []string{"monomial", "newton"} {
		for _, s := range []int{2, 5, 10, 15} {
			ctx := cfg.newContext(cfg.MaxDevices, cfg.Profile)
			p, err := core.NewProblem(ctx, mat.A, b, core.Natural, true)
			if err != nil {
				panic(err)
			}
			res, err := core.CAGMRES(p, core.Options{
				M: 60, S: s, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts,
				Ortho: "CholQR", Basis: basis, Precision: cfg.Precision,
			})
			row := ablationBasisRow{Basis: basis, S: s}
			// A halved step is the basis failing at s.
			if err != nil || res.StepHalvings > 0 {
				row.Failed = true
			} else {
				row.Converged = res.Converged
				row.Restarts = res.Restarts
			}
			out = append(out, row)
			cfg.printf("%-9s %4d %10v %8v %8d\n", basis, s, row.Converged, row.Failed, row.Restarts)
		}
	}
	return out
}

// ablationPrecisionRow reports one Gram-kernel precision configuration.
type ablationPrecisionRow struct {
	Strategy      string
	GramBytesD2H  int
	Orthogonality float64
	ModeledTime   float64
}

// ablationPrecision compares CholQR, MixedCholQR (single-precision Gram)
// and MixedCholQR2 (with a double-precision refinement pass) on a fixed
// tall-skinny window: the mixed kernel halves the reduce volume at an
// orthogonality cost of ~eps_32/eps_64, which the refinement pass buys
// back for double the work — the trade studied in the paper's reference
// [23].
func ablationPrecision(cfg Config) []ablationPrecisionRow {
	cfg.defaults()
	const c = 20
	n := int(100000 * cfg.Scale / 0.02)
	if n < 4*c {
		n = 4 * c
	}
	v := matgen.RandomTallSkinny(n, c, 1e3, 11)
	var out []ablationPrecisionRow
	cfg.printf("Ablation: Gram-kernel precision (n=%d, %d cols, kappa=1e3)\n", n, c)
	cfg.printf("%-14s %12s %14s %12s\n", "strategy", "gram bytes", "||I-Q'Q||", "time (ms)")
	for _, strat := range []ortho.TSQR{ortho.CholQR{}, ortho.MixedCholQR{}, ortho.MixedCholQR{Refine: true}} {
		ctx := cfg.newContext(cfg.MaxDevices, cfg.Profile)
		w := splitWindow(v.Clone(), cfg.MaxDevices)
		orig := ortho.CloneWindow(w)
		ctx.ResetStats()
		r, err := strat.Factor(ctx, w, "tsqr")
		if err != nil {
			panic(err)
		}
		e := ortho.Measure(w, orig, r)
		p := ctx.Stats().Phase("tsqr")
		row := ablationPrecisionRow{
			Strategy:      strat.Name(),
			GramBytesD2H:  p.BytesD2H,
			Orthogonality: e.Orthogonality,
			ModeledTime:   p.Total(),
		}
		out = append(out, row)
		cfg.printf("%-14s %12d %14.3e %12.4f\n", row.Strategy, row.GramBytesD2H, row.Orthogonality, ms(row.ModeledTime))
	}
	return out
}

// ablationFusedRow reports one CGS fusion configuration.
type ablationFusedRow struct {
	Strategy      string
	Rounds        int
	CommTime      float64
	Orthogonality float64
}

// ablationFusedCGS measures the fused-norm CGS optimization (the paper's
// footnote 5): the fused variant reduces the projection coefficients and
// the norm in one round and derives the post-update norm from the
// Pythagorean identity, halving the transfer count of the textbook
// (Figure 9) formulation at identical flop cost.
func ablationFusedCGS(cfg Config) []ablationFusedRow {
	cfg.defaults()
	const c = 20
	n := int(100000 * cfg.Scale / 0.02)
	if n < 4*c {
		n = 4 * c
	}
	v := matgen.RandomTallSkinny(n, c, 1e2, 13)
	var out []ablationFusedRow
	cfg.printf("Ablation: fused vs unfused CGS (n=%d, %d cols)\n", n, c)
	cfg.printf("%-12s %8s %12s %14s\n", "variant", "rounds", "comm ms", "||I-Q'Q||")
	for _, strat := range []ortho.TSQR{ortho.CGSUnfused{}, ortho.CGS{}} {
		ctx := cfg.newContext(cfg.MaxDevices, cfg.Profile)
		w := splitWindow(v.Clone(), cfg.MaxDevices)
		orig := ortho.CloneWindow(w)
		ctx.ResetStats()
		r, err := strat.Factor(ctx, w, "tsqr")
		if err != nil {
			panic(err)
		}
		e := ortho.Measure(w, orig, r)
		p := ctx.Stats().Phase("tsqr")
		row := ablationFusedRow{
			Strategy: strat.Name(), Rounds: p.Rounds,
			CommTime: p.CommTime, Orthogonality: e.Orthogonality,
		}
		out = append(out, row)
		cfg.printf("%-12s %8d %12.4f %14.3e\n", row.Strategy, row.Rounds, ms(row.CommTime), row.Orthogonality)
	}
	return out
}
