package bench

import (
	"fmt"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/profile"
	"cagmres/internal/sparse"
)

// precisionRow is one configuration of the mixed-precision study. The
// study has two parts, distinguished by Part: "convergence" runs the
// four paper matrices under every precision mode on a bf16-capable
// single node and reports what the policy did and what it cost;
// "beta" sweeps a federation's node count with the fp64 and mixed
// pipelines side by side and prices the compressed halos on the
// fabric tier — the β-savings the PR exists for.
type precisionRow struct {
	Part      string
	Matrix    string
	Precision string
	// Nodes/Ng describe the machine of the beta sweep (1 node on the
	// convergence part).
	Nodes int
	Ng    int
	// Convergence outcome: the FP64 true relative residual at the end,
	// and whether it met the tolerance.
	Converged bool
	Restarts  int
	Iters     int
	RelRes    float64
	// ModeledSec is the solve's modeled wall time.
	ModeledSec float64
	// Policy accounting, copied from the PrecisionReport (zero for
	// fp64 rows).
	WindowsFP64         int
	WindowsFP32         int
	CompressedTransfers int
	Refinements         int
	FinalLevel          string
	// FP32MB and CompMB are the narrow-wire ledger columns summed over
	// phases: traffic shipped at four and two bytes per scalar.
	FP32MB float64
	CompMB float64
	// InterMB is the fabric-tier traffic of the beta sweep; BetaSavings
	// is the fp64 arm's fabric volume over this row's — the modeled
	// β-cost reduction, 1.0 for the fp64 arm itself.
	InterMB     float64
	BetaSavings float64
	// SavedInterMB is the absolute fabric traffic the narrow pipeline
	// avoided versus the fp64 arm at the same membership.
	SavedInterMB float64
}

// precisionModes is the sweep order of the convergence part.
var precisionModes = []string{core.PrecisionFP64, core.PrecisionMixed, core.PrecisionAdaptive}

// precisionNodeCounts is the membership sweep of the beta part.
var precisionNodeCounts = []int{2, 4, 8, 16}

// figPrecision is the convergence-vs-precision study: the four paper
// matrices solved under fp64, mixed, and adaptive on a bf16-capable
// A100 node (part one), then the G3_circuit federation swept over node
// counts with the fp64 and mixed pipelines priced side by side on an
// InfiniBand fabric (part two). The reproduction targets, pinned by
// TestFigPrecisionShapes: every mode converges to the same FP64
// tolerance on every matrix, the narrowed arms actually ship narrow
// traffic, and the fabric-tier β-savings of the compressed pipeline
// exceed 1.3× and grow in absolute terms with the federation size.
// Deterministic like every study here: conversions are exact arithmetic
// on seeded data, so the tables replay bit-identically.
func figPrecision(cfg Config) []precisionRow {
	cfg.defaults()
	const (
		tol  = 1e-4
		s    = 10
		m    = 30
		maxR = 400
	)
	base := profile.A100PCIe()

	type workload struct {
		name string
		m    int
		gen  func(float64) *sparse.CSR
	}
	// cant runs at the paper's deeper restart length: its banded
	// indefinite structure converges painfully at m=30 (Figure 7's
	// motivation for sweeping m in the first place).
	workloads := []workload{
		{"cant", 60, func(sc float64) *sparse.CSR { return benchCant(sc).A }},
		{"G3_circuit", m, func(sc float64) *sparse.CSR { return benchG3(sc).A }},
		{"dielFilterV2real", m, func(sc float64) *sparse.CSR { return benchDiel(sc).A }},
		{"nlpkkt120", m, func(sc float64) *sparse.CSR { return benchKKT(sc).A }},
	}

	cfg.printf("Precision study: CA-GMRES(%d,%d) to tol %g on %s, bf16-capable transfers\n",
		s, m, tol, base.Name)
	cfg.printf("%-12s %-18s %-9s %5s %4s %5s %6s %10s %9s %8s %8s %8s\n",
		"part", "matrix", "precision", "nodes", "conv", "rst", "iters", "modeled", "relres", "fp32MB", "compMB", "β-save")

	var out []precisionRow
	emit := func(row precisionRow) {
		out = append(out, row)
		cfg.printf("%-12s %-18s %-9s %5d %4t %5d %6d %9.4fms %9.2e %8.3f %8.3f %8.3f\n",
			row.Part, row.Matrix, row.Precision, row.Nodes, row.Converged, row.Restarts,
			row.Iters, ms(row.ModeledSec), row.RelRes, row.FP32MB, row.CompMB, row.BetaSavings)
	}

	// Part one: convergence under each mode, one bf16-capable node.
	for _, w := range workloads {
		a := w.gen(cfg.Scale)
		b := onesRHS(a.Rows)
		for _, prec := range precisionModes {
			row := precisionPoint(cfg, a, b, base, "convergence", w.name, prec,
				1, cfg.MaxDevices, w.m, s, tol, maxR)
			emit(row)
		}
	}

	// Part two: the β-savings sweep. The same federation as the cluster
	// study — 2-GPU nodes on an ib-hdr fabric, the one interconnect tier
	// whose RDMA engines carry bfloat16 frames — solved with the fp64
	// and mixed pipelines, so the only difference between the two arms
	// of a membership is the element width on the wire.
	fab, err := profile.FabricByName("ib-hdr")
	if err != nil {
		panic(err)
	}
	const devicesPerNode = 2
	mtx := benchG3(cfg.Scale)
	bb := onesRHS(mtx.A.Rows)
	for _, nodes := range precisionNodeCounts {
		prof, err := profile.WithCluster(base, devicesPerNode, fab)
		if err != nil {
			panic(fmt.Sprintf("bench: precision cluster profile: %v", err))
		}
		ng := nodes * devicesPerNode
		f64 := precisionPoint(cfg, mtx.A, bb, prof, "beta", "G3_circuit",
			core.PrecisionFP64, nodes, ng, m, s, tol, maxR)
		mixed := precisionPoint(cfg, mtx.A, bb, prof, "beta", "G3_circuit",
			core.PrecisionMixed, nodes, ng, m, s, tol, maxR)
		f64.BetaSavings = 1
		if mixed.InterMB > 0 {
			mixed.BetaSavings = f64.InterMB / mixed.InterMB
		}
		mixed.SavedInterMB = f64.InterMB - mixed.InterMB
		emit(f64)
		emit(mixed)
	}
	return out
}

// precisionPoint runs one precision arm under an explicit machine
// profile and fills a row from the result and the ledger.
func precisionPoint(cfg Config, a *sparse.CSR, b []float64, prof gpu.Profile,
	part, matrix, prec string, nodes, ng, m, s int, tol float64, maxR int) precisionRow {
	ctx := cfg.newContext(ng, prof)
	p, err := core.NewProblem(ctx, a, b, core.KWay, true)
	if err != nil {
		panic(err)
	}
	res, err := core.CAGMRES(p, core.Options{
		M: m, S: s, Tol: tol, MaxRestarts: maxR,
		Ortho: "CholQR", Precision: prec,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: precision arm %s/%s/%s: %v", part, matrix, prec, err))
	}
	row := precisionRow{
		Part: part, Matrix: matrix, Precision: prec,
		Nodes: nodes, Ng: ng,
		Converged: res.Converged, Restarts: res.Restarts, Iters: res.Iters,
		RelRes: res.RelRes,
	}
	if rep := res.Precision; rep != nil {
		row.WindowsFP64 = rep.WindowsFP64
		row.WindowsFP32 = rep.WindowsFP32
		row.CompressedTransfers = rep.CompressedTransfers
		row.Refinements = rep.Refinements
		row.FinalLevel = rep.FinalLevel
	} else {
		row.FinalLevel = "fp64"
	}
	st := ctx.Stats()
	row.ModeledSec = st.TotalTime()
	var fp32, comp, inter int
	for _, phase := range st.Phases() {
		ps := st.Phase(phase)
		fp32 += ps.BytesFP32
		comp += ps.BytesCompressed
		inter += ps.BytesInterNode
	}
	row.FP32MB = float64(fp32) / 1e6
	row.CompMB = float64(comp) / 1e6
	row.InterMB = float64(inter) / 1e6
	return row
}
