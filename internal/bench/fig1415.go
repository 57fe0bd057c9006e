package bench

import (
	"fmt"

	"cagmres/internal/core"
	"cagmres/internal/matgen"
)

// fig14Row is one configuration row of the paper's main results table.
type fig14Row struct {
	Matrix   string
	Solver   string // "GMRES" or "CA-GMRES"
	S        int    // 0 for GMRES
	Ortho    string
	Devices  int
	Restarts int
	// Per-restart modeled milliseconds, matching the table's columns.
	OrthoPerRestart float64 // Orth (GMRES) or BOrth+TSQR (CA-GMRES)
	TSQRPerRestart  float64 // TSQR share alone (CA-GMRES)
	SpMVPerRestart  float64 // SpMV or MPK
	TotalPerRestart float64
	// Speedup over GMRES/CGS on the same device count (0 if N/A).
	Speedup float64
	// Err records a strategy failure (e.g. CholQR rank deficiency).
	Err string
}

// fig14Case describes one matrix block of the table.
type fig14Case struct {
	Matrix   *matgen.Matrix
	Ordering core.Ordering
	M        int
	S        int
}

// fig14Cases returns the paper's three table blocks: cant with
// GMRES(60)/natural ordering, G3_circuit with GMRES(30)/k-way, and
// dielFilterV2real with GMRES(180)/k-way. (nlpkkt120 appears in Figure
// 15 instead.)
func fig14Cases(scale float64) []fig14Case {
	return []fig14Case{
		{benchCant(scale), core.Natural, 60, 15},
		{benchG3(scale), core.KWay, 30, 15},
		{benchDiel(scale), core.KWay, 180, 15},
	}
}

// fig14 reproduces the CA-GMRES vs GMRES performance table (Figure 14):
// for each matrix, GMRES with MGS and CGS on 1..MaxDevices simulated
// GPUs, the degenerate CA-GMRES(1, m), and CA-GMRES(s=15, m) with CGS
// and CholQR TSQR, reporting per-restart modeled times and the speedup
// over same-device GMRES/CGS.
func fig14(cfg Config) []fig14Row {
	cfg.defaults()
	var out []fig14Row
	cfg.printf("Figure 14: CA-GMRES vs GMRES (modeled ms per restart cycle)\n")
	cfg.printf("%-16s %-9s %3s %-9s %3s %6s %10s %10s %10s %10s %7s\n",
		"matrix", "solver", "s", "ortho", "ng", "rest", "Orth/Res", "TSQR/Res", "SpMV/Res", "Total/Res", "SpdUp")
	for _, cse := range fig14Cases(cfg.Scale) {
		base := map[int]float64{} // GMRES/CGS Total/Res per device count
		b := onesRHS(cse.Matrix.A.Rows)

		// GMRES rows: MGS on 1 device, CGS on 1..MaxDevices.
		out = append(out, fig14GMRES(cfg, cse, b, "MGS", 1, base))
		for ng := 1; ng <= cfg.MaxDevices; ng++ {
			out = append(out, fig14GMRES(cfg, cse, b, "CGS", ng, base))
		}
		// CA-GMRES(1, m) on one device.
		out = append(out, fig14CA(cfg, cse, b, 1, "CGS", 1, base))
		// CA-GMRES(s, m): CGS on 1 device, CholQR on 1..MaxDevices.
		out = append(out, fig14CA(cfg, cse, b, cse.S, "CGS", 1, base))
		for ng := 1; ng <= cfg.MaxDevices; ng++ {
			out = append(out, fig14CA(cfg, cse, b, cse.S, "CholQR", ng, base))
		}
	}
	return out
}

func fig14GMRES(cfg Config, cse fig14Case, b []float64, orth string, ng int, base map[int]float64) fig14Row {
	ctx := cfg.newContext(ng, cfg.Profile)
	p, err := core.NewProblem(ctx, cse.Matrix.A, b, cse.Ordering, true)
	if err != nil {
		panic(err)
	}
	res, err := core.GMRES(p, core.Options{M: cse.M, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: orth})
	if err != nil {
		panic(err)
	}
	row := fig14Row{Matrix: cse.Matrix.Name, Solver: "GMRES", Ortho: orth, Devices: ng, Restarts: res.Restarts}
	fillTimes(&row, res)
	if orth == "CGS" {
		base[ng] = row.TotalPerRestart
	}
	if bt, ok := base[ng]; ok && bt > 0 && row.TotalPerRestart > 0 {
		row.Speedup = bt / row.TotalPerRestart
	}
	printFig14Row(cfg, row)
	return row
}

func fig14CA(cfg Config, cse fig14Case, b []float64, s int, orth string, ng int, base map[int]float64) fig14Row {
	p, err := core.NewProblem(cfg.newContext(ng, cfg.Profile), cse.Matrix.A, b, cse.Ordering, true)
	if err != nil {
		panic(err)
	}
	res, err := core.CAGMRES(p, core.Options{M: cse.M, S: s, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: orth, Precision: cfg.Precision})
	row := fig14Row{Matrix: cse.Matrix.Name, Solver: "CA-GMRES", S: s, Ortho: orth, Devices: ng}
	if err != nil {
		row.Err = err.Error()
		printFig14Row(cfg, row)
		return row
	}
	row.Restarts = res.Restarts
	fillTimes(&row, res)
	if bt, ok := base[ng]; ok && bt > 0 && row.TotalPerRestart > 0 {
		row.Speedup = bt / row.TotalPerRestart
	}
	printFig14Row(cfg, row)
	return row
}

func fillTimes(row *fig14Row, res *core.Result) {
	if res.Restarts == 0 {
		return
	}
	r := float64(res.Restarts)
	orth := res.Stats.Phase(core.PhaseOrth).Total() +
		res.Stats.Phase(core.PhaseBOrth).Total() +
		res.Stats.Phase(core.PhaseTSQR).Total()
	row.OrthoPerRestart = orth / r
	row.TSQRPerRestart = res.Stats.Phase(core.PhaseTSQR).Total() / r
	row.SpMVPerRestart = (res.Stats.Phase(core.PhaseSpMV).Total() + res.Stats.Phase(core.PhaseMPK).Total()) / r
	row.TotalPerRestart = res.Stats.TotalTime() / r
}

func printFig14Row(cfg Config, row fig14Row) {
	if row.Err != "" {
		cfg.printf("%-16s %-9s %3d %-9s %3d  FAILED: %s\n",
			row.Matrix, row.Solver, row.S, row.Ortho, row.Devices, row.Err)
		return
	}
	sp := "      -"
	if row.Speedup > 0 {
		sp = fmt.Sprintf("%7.2f", row.Speedup)
	}
	cfg.printf("%-16s %-9s %3d %-9s %3d %6d %10.3f %10.3f %10.3f %10.3f %7s\n",
		row.Matrix, row.Solver, row.S, row.Ortho, row.Devices, row.Restarts,
		ms(row.OrthoPerRestart), ms(row.TSQRPerRestart), ms(row.SpMVPerRestart),
		ms(row.TotalPerRestart), sp)
}

// fig15Row is one bar of the summary chart.
type fig15Row struct {
	Matrix  string
	Solver  string
	Devices int
	// Normalized is Total/Res divided by GMRES on one device for the
	// same matrix (the y-axis of Figure 15).
	Normalized float64
	// Speedup over same-device GMRES (annotated above the CA bars).
	Speedup float64
	Err     string
}

// fig15 reproduces the normalized summary (Figure 15): GMRES/CGS and
// CA-GMRES(10, m)/CholQR on 1..MaxDevices devices for all four paper
// matrices, each normalized to GMRES on one device.
func fig15(cfg Config) []fig15Row {
	cfg.defaults()
	var out []fig15Row
	cases := []struct {
		m        *matgen.Matrix
		ordering core.Ordering
		restart  int
	}{
		{benchCant(cfg.Scale), core.Natural, 60},
		{benchG3(cfg.Scale), core.KWay, 30},
		{benchDiel(cfg.Scale), core.KWay, 180},
		{benchKKT(cfg.Scale), core.KWay, 120},
	}
	const s = 10
	cfg.printf("Figure 15: normalized time per restart (GMRES on 1 device = 1.0)\n")
	cfg.printf("%-16s %-9s %3s %12s %8s\n", "matrix", "solver", "ng", "normalized", "speedup")
	for _, cse := range cases {
		b := onesRHS(cse.m.A.Rows)
		var base float64 // GMRES 1-device Total/Res
		gmresTotals := map[int]float64{}
		for ng := 1; ng <= cfg.MaxDevices; ng++ {
			ctx := cfg.newContext(ng, cfg.Profile)
			p, err := core.NewProblem(ctx, cse.m.A, b, cse.ordering, true)
			if err != nil {
				panic(err)
			}
			res, err := core.GMRES(p, core.Options{M: cse.restart, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CGS"})
			if err != nil {
				panic(err)
			}
			total := perRestart(res)
			gmresTotals[ng] = total
			if ng == 1 {
				base = total
			}
			row := fig15Row{Matrix: cse.m.Name, Solver: "GMRES", Devices: ng, Normalized: total / base}
			out = append(out, row)
			cfg.printf("%-16s %-9s %3d %12.4f %8s\n", row.Matrix, row.Solver, ng, row.Normalized, "-")
		}
		for ng := 1; ng <= cfg.MaxDevices; ng++ {
			p, err := core.NewProblem(cfg.newContext(ng, cfg.Profile), cse.m.A, b, cse.ordering, true)
			if err != nil {
				panic(err)
			}
			res, err := core.CAGMRES(p, core.Options{M: cse.restart, S: s, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CholQR", Precision: cfg.Precision})
			row := fig15Row{Matrix: cse.m.Name, Solver: "CA-GMRES", Devices: ng}
			if err != nil {
				row.Err = err.Error()
				out = append(out, row)
				cfg.printf("%-16s %-9s %3d  FAILED: %s\n", row.Matrix, row.Solver, ng, row.Err)
				continue
			}
			total := perRestart(res)
			row.Normalized = total / base
			if g := gmresTotals[ng]; g > 0 && total > 0 {
				row.Speedup = g / total
			}
			out = append(out, row)
			cfg.printf("%-16s %-9s %3d %12.4f %8.2f\n", row.Matrix, row.Solver, ng, row.Normalized, row.Speedup)
		}
	}
	return out
}
