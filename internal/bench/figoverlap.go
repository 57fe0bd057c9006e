package bench

import (
	"cagmres/internal/core"
	"cagmres/internal/matgen"
)

// overlapRow is one configuration of the overlapped-execution study: the
// same CA-GMRES solve scheduled synchronously (every round a global
// barrier) and through the stream engine (halo transfers overlapped with
// interior SpMV, host algebra overlapped with device GEMMs), with the
// modeled completion times of both schedules.
type overlapRow struct {
	Matrix  string
	Devices int
	S       int
	// SyncSec is the synchronous schedule's modeled solve time.
	SyncSec float64
	// OverlapSec is the stream engine's modeled critical path.
	OverlapSec float64
	// Speedup is SyncSec / OverlapSec.
	Speedup float64
}

// figOverlap measures what the asynchronous stream engine buys: the
// paper's G3_circuit configuration (m = 30, k-way ordering, CholQR)
// swept over the basis depth s and the device count, solved once per
// schedule. The iterates are bit-identical between the two arms — the
// engine reorders time, not arithmetic — so the comparison isolates the
// schedule. Overlap grows with s (deeper windows mean more interior
// SpMV to hide the halo exchange behind) and with the device count
// (more transfer lanes taken off the critical path).
func figOverlap(cfg Config) []overlapRow {
	cfg.defaults()
	mtx := benchG3(cfg.Scale)
	b := onesRHS(mtx.A.Rows)
	var out []overlapRow
	cfg.printf("Overlap study: CA-GMRES(s, 30) on %s, synchronous vs stream schedule (modeled ms)\n", mtx.Name)
	cfg.printf("%-16s %3s %3s %12s %12s %8s\n", "matrix", "s", "ng", "sync", "overlap", "speedup")
	for _, s := range []int{5, 10, 15} {
		for ng := 1; ng <= cfg.MaxDevices; ng++ {
			row := overlapRow{Matrix: mtx.Name, Devices: ng, S: s}
			row.SyncSec = overlapArm(cfg, mtx, b, s, ng, false)
			row.OverlapSec = overlapArm(cfg, mtx, b, s, ng, true)
			if row.OverlapSec > 0 {
				row.Speedup = row.SyncSec / row.OverlapSec
			}
			out = append(out, row)
			cfg.printf("%-16s %3d %3d %12.4f %12.4f %8.3f\n",
				row.Matrix, row.S, row.Devices, ms(row.SyncSec), ms(row.OverlapSec), row.Speedup)
		}
	}
	return out
}

// overlapArm runs one CA-GMRES solve and returns its modeled time under
// the requested schedule: the ledger total for the synchronous barrier
// schedule, the stream horizon for the overlapped one.
func overlapArm(cfg Config, mtx *matgen.Matrix, b []float64, s, ng int, overlap bool) float64 {
	ctx := cfg.newContext(ng, cfg.Profile)
	p, err := core.NewProblem(ctx, mtx.A, b, core.KWay, true)
	if err != nil {
		panic(err)
	}
	_, err = core.CAGMRES(p, core.Options{
		M: 30, S: s, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts,
		Ortho: "CholQR", Overlap: overlap, Precision: cfg.Precision,
	})
	if err != nil {
		panic(err)
	}
	if overlap {
		return ctx.OverlappedTime()
	}
	return ctx.Stats().TotalTime()
}
