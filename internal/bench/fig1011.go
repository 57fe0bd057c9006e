package bench

import (
	"time"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/matgen"
	"cagmres/internal/ortho"
)

// fig10Row pairs a strategy's analytic properties with its measured
// per-window transfer count on the simulated devices, plus the ledger's
// kernel-launch and flop accounting for the factorization.
type fig10Row struct {
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

// fig10 prints the TSQR strategy property table (Figure 10) and verifies
// the communication column by factoring one window per strategy and
// counting ledger rounds.
func fig10(cfg Config) []fig10Row {
	cfg.defaults()
	const n, s = 30000, 9
	props := ortho.PropertyTable(n, s)
	v := matgen.RandomTallSkinny(n, s+1, 1e2, 7)
	out := make([]fig10Row, 0, len(props))
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
		row := fig10Row{Property: p, MeasuredComm: ph.Rounds,
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

// fig11Kernel is one modeled point of the kernel study.
type fig11Kernel struct {
	Kernel string
	Rows   int
	// Gflops is the kernel's modeled rate.
	Gflops float64
	// Elapsed is the modeled per-invocation time.
	Elapsed time.Duration
	// Flops is the per-invocation floating-point operation count the rate
	// was computed from.
	Flops float64
	// Modeled is always true: the figure reads the cost model, not a
	// clock. The column stays so the CSV keeps its shape.
	Modeled bool
}

// panels returns the row-panel count the batched tall-skinny kernels use
// for an n-row input (the structural parallelism of the schedule, not the
// host's core count — the cost model caps it at its own core count).
func panels(n int) int {
	return (n + la.PanelRows - 1) / la.PanelRows
}

// fig11ab charges the tall-skinny GEMM and GEMV kernels on the host: the
// naive one-pass kernels versus the panel-parallel "batched" schedules,
// the analogue of the paper's CUBLAS-vs-batched-DGEMM comparison (Figure
// 11a/b). The batched forms must win on tall inputs. The comparison is a
// deterministic statement about the kernel schedules: each one's
// parallelism and dispatch count charged against the cost model's host
// constants (gpu.CostModel.HostKernelTime). Nothing is executed; the
// wall-clock times of the same kernels are Go benchmarks of internal/la.
func fig11ab(cfg Config) []fig11Kernel {
	cfg.defaults()
	const c = 30
	var out []fig11Kernel
	cfg.printf("Figure 11(a,b): tall-skinny kernels on the host, %d columns (modeled time)\n", c)
	cfg.printf("%-22s %10s %10s\n", "kernel", "rows", "Gflop/s")
	for _, n := range []int{1 << 14, 1 << 17} {
		gramFlops := float64(n) * c * c
		gramBytes := 8 * float64(n) * c // stream the tall operand once
		gemvFlops := 2 * float64(n) * c
		np := panels(n)
		gemvWorkers := min(c, gpu.HostCores)
		// A parallel schedule pays one dispatch per worker plus the join.
		for _, k := range []struct {
			name       string
			flops      float64
			par, disps int
		}{
			{"gemm/serial", gramFlops, 1, 1},
			{"gemm/batched", gramFlops, np, np + 1},
			{"gemv/serial", gemvFlops, 1, 1},
			{"gemv/parallel", gemvFlops, gemvWorkers, gemvWorkers + 1},
		} {
			sec := cfg.Profile.Model.HostKernelTime(gpu.HostKernel{
				Flops: k.flops, Bytes: gramBytes, Parallelism: k.par, Dispatches: k.disps,
			})
			row := fig11Kernel{Kernel: k.name, Rows: n, Gflops: k.flops / sec / 1e9,
				Elapsed: time.Duration(sec * float64(time.Second)), Flops: k.flops, Modeled: true}
			out = append(out, row)
			cfg.printf("%-22s %10d %10.2f\n", row.Kernel, n, row.Gflops)
		}
	}
	return out
}

// fig11cRow is one TSQR throughput sample.
type fig11cRow struct {
	Strategy string
	Devices  int
	// EffectiveGflops = (4 n c^2 reference flops of DGEQRF+DORGQR) /
	// modeled time, the paper's effective-Gflop/s metric.
	EffectiveGflops float64
}

// fig11c measures TSQR throughput for every strategy on 1..MaxDevices
// simulated GPUs with an n x 30 window (Figure 11c). Expected shape:
// CholQR/SVQR (BLAS-3) on top, CGS next, MGS and CAQR at the
// BLAS-1/2 floor, and all strategies scaling with the device count.
func fig11c(cfg Config) []fig11cRow {
	cfg.defaults()
	const c = 30
	n := int(200000 * cfg.Scale / 0.02)
	if n < 4*c {
		n = 4 * c
	}
	refFlops := 4 * float64(n) * c * c
	v := matgen.RandomTallSkinny(n, c, 1e2, 9)
	var out []fig11cRow
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
			row := fig11cRow{Strategy: strat.Name(), Devices: ng, EffectiveGflops: refFlops / t / 1e9}
			out = append(out, row)
			cfg.printf("%-8s %8d %14.2f\n", row.Strategy, ng, row.EffectiveGflops)
		}
	}
	return out
}
