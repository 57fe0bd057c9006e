package bench

import (
	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
)

// cpuProfile derives the CPU-only machine used for the paper's Figure 3
// reference point (threaded MKL on the two Sandy Bridge sockets) from the
// host side of p: device kernels run at host rates, and "transfers"
// degenerate into cheap shared-memory synchronizations instead of PCIe
// round trips.
func cpuProfile(p gpu.Profile) gpu.Profile {
	m := p.Model
	return gpu.Profile{
		Name: "cpu",
		Model: gpu.CostModel{
			Latency:      2e-6,
			Bandwidth:    m.HostMemBW,
			DeviceGflops: m.HostGflops,
			DeviceMemBW:  m.HostMemBW,
			HostGflops:   m.HostGflops,
			HostMemBW:    m.HostMemBW,
			KernelLaunch: 2e-7,
		},
		Topo: gpu.Topology{Kind: gpu.TopoHostHub, PeerLatency: 2e-6, PeerBandwidth: m.HostMemBW},
	}
}

// fig3Row is one GMRES timing sample.
type fig3Row struct {
	Matrix string
	// Target is "CPU" or "1 GPU".."3 GPU".
	Target string
	// TimePerRestart is the modeled seconds per restart cycle.
	TimePerRestart float64
	Restarts       int
}

// fig3 reproduces the GMRES platform comparison (Figure 3): time per
// restart of GMRES(m) with the CGS Arnoldi on the 16-core CPU model and
// on one to MaxDevices simulated GPUs, for the cant and G3_circuit
// analogues. Expected shape: the GPUs beat the CPU and scale with the
// device count.
func fig3(cfg Config) []fig3Row {
	cfg.defaults()
	var out []fig3Row
	cases := []struct {
		m    *matgen.Matrix
		ord  core.Ordering
		rest int
	}{
		// cant is naturally banded; G3's netlist numbering needs the
		// k-way partitioner for a sane multi-device distribution (the
		// convention the paper uses throughout).
		{benchCant(cfg.Scale), core.Natural, 60},
		{benchG3(cfg.Scale), core.KWay, 30},
	}
	cfg.printf("Figure 3: GMRES time per restart (modeled ms)\n")
	cfg.printf("%-12s %-8s %10s %10s\n", "matrix", "target", "ms/restart", "restarts")
	for _, c := range cases {
		b := onesRHS(c.m.A.Rows)
		run := func(target string, ng int, prof gpu.Profile) {
			ctx := cfg.newContext(ng, prof)
			p, err := core.NewProblem(ctx, c.m.A, b, c.ord, true)
			if err != nil {
				panic(err)
			}
			res, err := core.GMRES(p, core.Options{
				M: c.rest, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CGS",
			})
			if err != nil {
				panic(err)
			}
			per := perRestart(res)
			out = append(out, fig3Row{Matrix: c.m.Name, Target: target, TimePerRestart: per, Restarts: res.Restarts})
			cfg.printf("%-12s %-8s %10.3f %10d\n", c.m.Name, target, ms(per), res.Restarts)
		}
		// The CPU reference runs as ONE device: the two sockets share a
		// single memory system, unlike the GPUs which each bring their
		// own. Kernels still execute at the threaded aggregate rates.
		run("CPU", 1, cpuProfile(cfg.Profile))
		for ng := 1; ng <= cfg.MaxDevices; ng++ {
			run(gpuLabel(ng), ng, cfg.Profile)
		}
	}
	return out
}

func gpuLabel(ng int) string {
	return string(rune('0'+ng)) + " GPU"
}

func onesRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

// perRestart returns the modeled total solve time divided by the restart
// count.
func perRestart(res *core.Result) float64 {
	if res.Restarts == 0 {
		return 0
	}
	return res.Stats.TotalTime() / float64(res.Restarts)
}
