package bench

import (
	"cagmres/internal/core"
	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

// orderings are the paper's three distribution configurations, under the
// labels its figures print.
var orderings = []struct {
	label string
	core.Ordering
}{{"NAT", core.Natural}, {"RCM", core.RCM}, {"KWY", core.KWay}}

// applyOrdering permutes the matrix and produces the layout for the
// ordering over ng devices: core.Prepare's, without balancing.
func applyOrdering(a *sparse.CSR, ord core.Ordering, ng int) (*sparse.CSR, *dist.Layout) {
	p, err := core.Prepare(gpu.NewContext(ng, gpu.M2090()), a, ord, false)
	if err != nil {
		panic("bench: " + err.Error()) // the generators build square matrices
	}
	return p.A, p.Layout
}

// fig6Row is one (matrix, ordering, s) sample of the surface-to-volume
// study.
type fig6Row struct {
	Matrix   string
	Ordering string
	S        int
	// MaxRatio is max_d nnz(A(delta^(d,1:s),:)) / nnz(A^(d)), the
	// quantity Figure 6 plots.
	MaxRatio float64
	// ExtraWork is sum_d W^(d,s), the added flops of one MPK call.
	ExtraWork float64
}

// fig6 sweeps the surface-to-volume ratio of the matrix powers kernel
// over s for the cant and G3_circuit analogues under the three orderings
// on MaxDevices simulated GPUs (Figure 6).
func fig6(cfg Config) []fig6Row {
	cfg.defaults()
	var out []fig6Row
	mats := []*matgen.Matrix{benchCant(cfg.Scale), benchG3(cfg.Scale)}
	ng := cfg.MaxDevices
	ctx := cfg.newContext(ng, cfg.Profile)
	cfg.printf("Figure 6: surface-to-volume ratio, %d devices\n", ng)
	cfg.printf("%-12s %-5s %4s %12s %14s\n", "matrix", "ord", "s", "max ratio", "extra flops")
	for _, m := range mats {
		for _, ord := range orderings {
			a, layout := applyOrdering(m.A, ord.Ordering, ng)
			for s := 1; s <= 10; s++ {
				dm := dist.Distribute(ctx, a, layout, s)
				an := dist.Analyze(dm)
				row := fig6Row{
					Matrix:    m.Name,
					Ordering:  ord.label,
					S:         s,
					MaxRatio:  an.MaxSurfaceToVolume(),
					ExtraWork: an.TotalExtraWork(),
				}
				out = append(out, row)
				cfg.printf("%-12s %-5s %4d %12.4f %14.3e\n", m.Name, ord.label, s, row.MaxRatio, row.ExtraWork)
			}
		}
	}
	return out
}

// fig7Row is one sample of the communication-volume study.
type fig7Row struct {
	Matrix   string
	Ordering string
	S        int
	// Volume is the total elements moved to generate m=100 vectors with
	// MPK(s): ceil(100/s) * (gather + scatter).
	Volume int
	// RelativeToSpMV normalizes by the volume of 100 plain SpMVs.
	RelativeToSpMV float64
}

// fig7 computes the total MPK communication volume over a 100-iteration
// restart loop as a function of s (Figure 7).
func fig7(cfg Config) []fig7Row {
	cfg.defaults()
	var out []fig7Row
	const mIters = 100
	mats := []*matgen.Matrix{benchCant(cfg.Scale), benchG3(cfg.Scale)}
	ng := cfg.MaxDevices
	ctx := cfg.newContext(ng, cfg.Profile)
	cfg.printf("Figure 7: MPK communication volume for m=%d vectors, %d devices\n", mIters, ng)
	cfg.printf("%-12s %-5s %4s %12s %10s\n", "matrix", "ord", "s", "elements", "vs SpMV")
	for _, m := range mats {
		for _, ord := range orderings {
			a, layout := applyOrdering(m.A, ord.Ordering, ng)
			spmvVol := 0
			for s := 1; s <= 10; s++ {
				dm := dist.Distribute(ctx, a, layout, s)
				an := dist.Analyze(dm)
				vol := an.TotalCommVolume(mIters)
				if s == 1 {
					spmvVol = vol
				}
				rel := 0.0
				if spmvVol > 0 {
					rel = float64(vol) / float64(spmvVol)
				}
				out = append(out, fig7Row{
					Matrix: m.Name, Ordering: ord.label, S: s, Volume: vol, RelativeToSpMV: rel,
				})
				cfg.printf("%-12s %-5s %4d %12d %10.3f\n", m.Name, ord.label, s, vol, rel)
			}
		}
	}
	return out
}

// fig8Row is one sample of the MPK timing sweep.
type fig8Row struct {
	Matrix string
	S      int
	// CommTime and ComputeTime are the modeled seconds to generate
	// m=100 basis vectors (the solid-vs-dashed split of Figure 8).
	CommTime    float64
	ComputeTime float64
}

// Total returns comm + compute.
func (r fig8Row) Total() float64 { return r.CommTime + r.ComputeTime }

// fig8 times the matrix powers kernel generating 100 basis vectors for
// s = 1..10 (Figure 8): compute grows roughly linearly with s while the
// communication time collapses as soon as s > 1 (latency is paid once
// per window) and then flattens into the bandwidth regime.
func fig8(cfg Config) []fig8Row {
	cfg.defaults()
	var out []fig8Row
	const mIters = 100
	// The paper plots cant under RCM and G3 under KWY (their best).
	cases := []struct {
		m   *matgen.Matrix
		ord core.Ordering
	}{
		{benchCant(cfg.Scale), core.RCM},
		{benchG3(cfg.Scale), core.KWay},
	}
	ng := cfg.MaxDevices
	cfg.printf("Figure 8: MPK time to generate %d vectors, %d devices (modeled ms)\n", mIters, ng)
	cfg.printf("%-12s %4s %12s %12s %12s\n", "matrix", "s", "comm", "compute", "total")
	for _, c := range cases {
		a, layout := applyOrdering(c.m.A, c.ord, ng)
		for s := 1; s <= 10; s++ {
			ctx := cfg.newContext(ng, cfg.Profile)
			dm := dist.Distribute(ctx, a, layout, s)
			mpk := dist.NewMPK(dm)
			v := dist.NewVectors(ctx, layout, s+1)
			x := make([]float64, a.Rows)
			for i := range x {
				x[i] = 1 / float64(i+1)
			}
			v.SetColFromHost(0, x)
			ctx.ResetStats()
			calls := (mIters + s - 1) / s
			for call := 0; call < calls; call++ {
				mpk.Generate(v, 0, s, nil, "mpk")
			}
			p := ctx.Stats().Phase("mpk")
			row := fig8Row{Matrix: c.m.Name, S: s, CommTime: p.CommTime, ComputeTime: p.DeviceTime}
			out = append(out, row)
			cfg.printf("%-12s %4d %12.3f %12.3f %12.3f\n", c.m.Name, s, ms(row.CommTime), ms(row.ComputeTime), ms(row.Total()))
		}
	}
	return out
}
