package bench

import (
	"time"

	"cagmres/internal/la"
	"cagmres/internal/matgen"
	"cagmres/internal/measure"
	"cagmres/internal/ortho"
)

// Fig10Row pairs a strategy's analytic properties with its measured
// per-window transfer count on the simulated devices, plus the ledger's
// kernel-launch and flop accounting for the factorization.
type Fig10Row struct {
	ortho.Property
	MeasuredComm int
	// Kernels is the number of device kernel launches the factorization
	// issued (ledger "tsqr" phase).
	Kernels int
	// DeviceFlops is the total device flops charged, summed over devices.
	DeviceFlops float64
	// AchievedGflops is DeviceFlops over the phase's critical-path device
	// time — the modeled achieved rate of the strategy.
	AchievedGflops float64
}

// Fig10 prints the TSQR strategy property table (Figure 10) and verifies
// the communication column by factoring one window per strategy and
// counting ledger rounds.
func Fig10(cfg Config) []Fig10Row {
	cfg.Defaults()
	const n, s = 30000, 9
	props := ortho.PropertyTable(n, s)
	v := matgen.RandomTallSkinny(n, s+1, 1e2, 7)
	out := make([]Fig10Row, 0, len(props))
	cfg.printf("Figure 10: TSQR strategy properties, n=%d, s=%d\n", n, s)
	cfg.printf("%-8s %-16s %12s %10s %10s %8s %12s %10s  %s\n",
		"name", "error", "flops", "comm", "measured", "kernels", "devflops", "Gflop/s", "kernel")
	for _, p := range props {
		strat, err := ortho.ByName(p.Name)
		if err != nil {
			panic(err)
		}
		ctx := cfg.newContext(cfg.MaxDevices, cfg.Profile)
		w := splitWindow(v.Clone(), cfg.MaxDevices)
		ctx.ResetStats()
		if _, err := strat.Factor(ctx, w, "tsqr"); err != nil {
			panic(err)
		}
		ph := ctx.Stats().Phase("tsqr")
		row := Fig10Row{Property: p, MeasuredComm: ph.Rounds,
			Kernels: ph.Kernels, DeviceFlops: ph.DeviceFlops, AchievedGflops: ph.DeviceGflops()}
		out = append(out, row)
		cfg.printf("%-8s %-16s %12.3e %10d %10d %8d %12.3e %10.2f  %s\n",
			p.Name, p.ErrorBound, p.Flops, p.CommCount, row.MeasuredComm,
			row.Kernels, row.DeviceFlops, row.AchievedGflops, p.BLASLevel)
	}
	return out
}

// splitWindow scatters a host matrix into ng row panels (the shape the
// TSQR kernels take).
func splitWindow(v *la.Dense, ng int) []*la.Dense {
	n := v.Rows
	base, rem := n/ng, n%ng
	out := make([]*la.Dense, ng)
	r0 := 0
	for d := 0; d < ng; d++ {
		rows := base
		if d < rem {
			rows++
		}
		p := la.NewDense(rows, v.Cols)
		for j := 0; j < v.Cols; j++ {
			copy(p.Col(j), v.Col(j)[r0:r0+rows])
		}
		out[d] = p
		r0 += rows
	}
	return out
}

// Fig11Kernel is one timed point of the kernel study.
type Fig11Kernel struct {
	Kernel string
	Rows   int
	// Gflops is the kernel rate: deterministic modeled Gflop/s by
	// default, wall-clock Gflop/s when the config carries a WallTimer
	// (cmd/experiments -measured).
	Gflops  float64
	Elapsed time.Duration
	// Flops is the per-invocation floating-point operation count the rate
	// was computed from.
	Flops float64
	// Modeled reports which clock produced the numbers.
	Modeled bool
}

// panels returns the row-panel count the batched tall-skinny kernels use
// for an n-row input (the structural parallelism of the schedule, not the
// host's core count — the cost model caps it at its own core count).
func panels(n int) int {
	return (n + la.PanelRows - 1) / la.PanelRows
}

// Fig11ab times the tall-skinny GEMM and GEMV kernels on the host: the
// naive one-pass kernels versus the panel-parallel "batched" schedules,
// the analogue of the paper's CUBLAS-vs-batched-DGEMM comparison (Figure
// 11a/b). The batched forms must win on tall inputs. Under the default
// ModelTimer the comparison is a deterministic statement about the kernel
// schedules (parallelism and dispatch counts charged against the cost
// model's host constants). Under a WallTimer it is a real measurement of
// the host code, which runs on one goroutine: the batched GEMM row times
// the panel schedule done serially, and the parallel GEMV row times
// GemvT, so only the modeled rows carry the schedules' parallelism.
func Fig11ab(cfg Config) []Fig11Kernel {
	cfg.Defaults()
	const c = 30
	sizes := []int{1 << 14, 1 << 17}
	var out []Fig11Kernel
	mode := "modeled"
	if !cfg.Timer.Deterministic() {
		mode = "measured"
	}
	cfg.printf("Figure 11(a,b): tall-skinny kernels on the host, %d columns (%s time)\n", c, mode)
	cfg.printf("%-22s %10s %10s\n", "kernel", "rows", "Gflop/s")
	for _, n := range sizes {
		v := matgen.RandomTallSkinny(n, c, 10, 3)
		g := la.NewDense(c, c)
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		y := make([]float64, c)

		gramFlops := float64(n) * c * c
		gramBytes := 8 * float64(n) * c // stream the tall operand once
		gemvFlops := 2 * float64(n) * c
		np := panels(n)
		gemvWorkers := measure.HostCores
		if c < gemvWorkers {
			gemvWorkers = c
		}
		out = append(out,
			timeKernel(cfg, measure.Kernel{
				Name: "gemm/serial", Flops: gramFlops, Bytes: gramBytes,
				Parallelism: 1, Dispatches: 1,
			}, n, func() { la.Syrk(v, g) }),
			timeKernel(cfg, measure.Kernel{
				Name: "gemm/batched", Flops: gramFlops, Bytes: gramBytes,
				Parallelism: np, Dispatches: np + 1,
			}, n, func() { la.BatchedGram(v, g) }),
			timeKernel(cfg, measure.Kernel{
				Name: "gemv/serial", Flops: gemvFlops, Bytes: gramBytes,
				Parallelism: 1, Dispatches: 1,
			}, n, func() { la.GemvT(1, v, x, 0, y) }),
			timeKernel(cfg, measure.Kernel{
				Name: "gemv/parallel", Flops: gemvFlops, Bytes: gramBytes,
				Parallelism: gemvWorkers, Dispatches: gemvWorkers + 1,
			}, n, func() { la.GemvT(1, v, x, 0, y) }),
		)
	}
	return out
}

// timeKernel times one kernel through the config's Timer.
func timeKernel(cfg Config, k measure.Kernel, rows int, f func()) Fig11Kernel {
	s := cfg.Timer.Time(k, f)
	out := Fig11Kernel{Kernel: k.Name, Rows: rows, Elapsed: s.Duration(),
		Gflops: s.Gflops(k.Flops), Flops: k.Flops, Modeled: s.Modeled}
	cfg.printf("%-22s %10d %10.2f\n", k.Name, rows, out.Gflops)
	return out
}

// Fig11cRow is one TSQR throughput sample.
type Fig11cRow struct {
	Strategy string
	Devices  int
	// EffectiveGflops = (4 n c^2 reference flops of DGEQRF+DORGQR) /
	// modeled time, the paper's effective-Gflop/s metric.
	EffectiveGflops float64
}

// Fig11c measures TSQR throughput for every strategy on 1..MaxDevices
// simulated GPUs with an n x 30 window (Figure 11c). Expected shape:
// CholQR/SVQR (BLAS-3) on top, CGS next, MGS and CAQR at the
// BLAS-1/2 floor, and all strategies scaling with the device count.
func Fig11c(cfg Config) []Fig11cRow {
	cfg.Defaults()
	const c = 30
	n := int(200000 * cfg.Scale / 0.02)
	if n < 4*c {
		n = 4 * c
	}
	refFlops := 4 * float64(n) * c * c
	v := matgen.RandomTallSkinny(n, c, 1e2, 9)
	var out []Fig11cRow
	cfg.printf("Figure 11(c): TSQR effective Gflop/s, n=%d, s+1=%d (modeled)\n", n, c)
	cfg.printf("%-8s %8s %14s\n", "strategy", "devices", "eff Gflop/s")
	for _, strat := range ortho.All() {
		for ng := 1; ng <= cfg.MaxDevices; ng++ {
			ctx := cfg.newContext(ng, cfg.Profile)
			w := splitWindow(v.Clone(), ng)
			ctx.ResetStats()
			if _, err := strat.Factor(ctx, w, "tsqr"); err != nil {
				panic(err)
			}
			t := ctx.Stats().Phase("tsqr").Total()
			row := Fig11cRow{Strategy: strat.Name(), Devices: ng, EffectiveGflops: refFlops / t / 1e9}
			out = append(out, row)
			cfg.printf("%-8s %8d %14.2f\n", row.Strategy, ng, row.EffectiveGflops)
		}
	}
	return out
}
