// Command cagmres solves a sparse linear system A x = b with GMRES or
// CA-GMRES on the simulated multi-GPU runtime and prints the convergence
// history and the per-phase communication/compute ledger.
//
// The matrix comes either from one of the built-in paper analogues
// (-matrix cant|G3_circuit|dielFilterV2real|nlpkkt120, sized by -scale)
// or from a MatrixMarket file (-file path). The right-hand side is the
// all-ones vector unless -rhs random is given.
//
// Examples:
//
//	cagmres -matrix G3_circuit -scale 0.02 -solver ca -s 10 -m 30 -ortho CholQR -devices 3
//	cagmres -file matrix.mtx -solver gmres -m 60 -ortho MGS
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/profile"
)

func main() {
	matrix := flag.String("matrix", "G3_circuit", "built-in matrix: cant, G3_circuit, dielFilterV2real, nlpkkt120")
	file := flag.String("file", "", "MatrixMarket file (overrides -matrix)")
	scale := flag.Float64("scale", 0.02, "built-in matrix scale (1.0 = published size)")
	solver := flag.String("solver", "ca", "solver: gmres or ca")
	var opts core.Options
	flag.IntVar(&opts.M, "m", 30, "restart length")
	flag.IntVar(&opts.S, "s", 10, "CA-GMRES step size")
	flag.StringVar(&opts.Ortho, "ortho", "CholQR", "orthogonalization: GMRES takes MGS|CGS; CA takes MGS|CGS|CholQR|SVQR|CAQR (2x prefix allowed)")
	flag.StringVar(&opts.BOrth, "borth", "CGS", "CA-GMRES block orthogonalization: CGS or MGS")
	flag.StringVar(&opts.Basis, "basis", "newton", "CA-GMRES basis: newton or monomial")
	ordering := flag.String("ordering", "kway", "matrix ordering: natural, rcm, kway, hypergraph")
	devices := flag.Int("devices", 3, "simulated GPU count")
	flag.Float64Var(&opts.Tol, "tol", 1e-4, "relative residual tolerance")
	flag.IntVar(&opts.MaxRestarts, "max-restarts", 500, "restart cap")
	rhs := flag.String("rhs", "ones", "right-hand side: ones or random")
	balance := flag.Bool("balance", true, "balance the matrix before solving")
	jacobi := flag.Bool("jacobi", false, "right-precondition with the inverse diagonal (composes with MPK)")
	flag.StringVar(&opts.Precision, "precision", "", "CA-GMRES precision mode: fp64 (default), mixed (fp32 basis + FP64 refinement), or adaptive (tighten-only schedule)")
	trace := flag.Int("trace", 0, "print the last N ledger events (communication rounds and kernels)")
	traceout := flag.String("traceout", "", "write the solve's ledger events as a Chrome trace_event JSON to this file")
	telemetry := flag.String("telemetry", "", "write the solve's convergence telemetry as JSON lines to this file")
	metrics := flag.String("metrics", "", "write Prometheus text-format metrics (per-phase ledger, histograms, convergence) to this file")
	serve := flag.String("serve", "", "after solving, serve /metrics, /metrics.json, /trace.json and /debug/pprof on this address and block (e.g. :9090)")
	profName := flag.String("profile", "", "machine profile (m2090, a100-pcie, h100-nvlink); empty keeps the paper's m2090")
	topoName := flag.String("topology", "", "override the profile's interconnect topology (host-hub, pcie-switch, nvlink-ring, all-to-all)")
	traceparent := flag.String("traceparent", "", "adopt this W3C traceparent as the solve's trace context (a fresh trace id is minted when empty or invalid)")
	spansout := flag.String("spansout", "", "write the solve's request-trace span stream (root + solver phases) as JSON lines to this file")
	flag.Parse()
	if *devices < 1 {
		fatal(fmt.Errorf("-devices %d: need at least 1", *devices))
	}
	ord, err := core.ParseOrdering(*ordering)
	if err != nil {
		fatal(err)
	}
	if *solver == "gmres" && opts.Ortho != "MGS" && opts.Ortho != "CGS" {
		opts.Ortho = "CGS" // -ortho defaults to a CA strategy
	}

	a, name, err := matgen.Load(*file, *matrix, *scale)
	if err != nil {
		fatal(err)
	}
	if _, err := core.Check(*solver, opts, a); err != nil {
		fatal(err)
	}
	fmt.Printf("matrix %s: n=%d, nnz=%d (%.1f per row)\n",
		name, a.Rows, a.NNZ(), float64(a.NNZ())/float64(a.Rows))

	b := make([]float64, a.Rows)
	switch *rhs {
	case "ones":
		for i := range b {
			b[i] = 1
		}
	case "random":
		rng := rand.New(rand.NewSource(1))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
	default:
		fatal(fmt.Errorf("unknown -rhs %q", *rhs))
	}

	prof, err := profile.FromFlags(*profName, *topoName)
	if err != nil {
		fatal(err)
	}
	ctx := gpu.NewContext(*devices, prof)
	traceCap := *trace
	// The metrics histograms and the /trace.json endpoint are built from
	// the event ring, so -metrics and -serve imply tracing.
	if (*traceout != "" || *metrics != "" || *serve != "") && traceCap < 1<<14 {
		traceCap = 1 << 14
	}
	if traceCap > 0 {
		ctx.Stats().EnableTrace(traceCap)
	}
	p, err := core.NewProblem(ctx, a, b, ord, *balance)
	if err != nil {
		fatal(err)
	}
	if *jacobi {
		p.ApplyJacobi()
	}
	// Observability: one registry for the whole run.
	var reg *obs.Registry
	if *telemetry != "" || *metrics != "" || *serve != "" {
		reg = obs.NewRegistry()
	}
	// Request tracing: the CLI mints (or adopts, via -traceparent) one root
	// span for the whole solve and hangs the solver's phase spans under it.
	var tracer *obs.Tracer
	var jt *obs.JobTrace
	if *spansout != "" || *traceparent != "" {
		tracer = obs.NewTracer(reg)
		root := tracer.Root("cli solve", *traceparent)
		root.Start = float64(time.Now().UnixNano()) / 1e9
		root.SetAttr("solver", *solver)
		root.SetAttr("matrix", name)
		jt = obs.NewJobTrace(tracer, root)
	}
	var telBuf bytes.Buffer
	var sink obs.Sink
	if *telemetry != "" {
		sink = obs.NewJSONLSink(&telBuf)
	}
	if reg != nil {
		sink = reg.ConvergenceSink(sink)
	}
	if jt != nil {
		sink = jt.SolverSink(tracer, jt.Root(), "cli", 1, sink)
	}
	opts.Telemetry = sink

	start := time.Now()
	var res *core.Result
	if *solver == "gmres" {
		res, err = core.GMRES(p, opts)
	} else {
		res, err = core.CAGMRES(p, opts)
	}
	wall := time.Since(start)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nconverged: %v  restarts: %d  iterations: %d\n", res.Converged, res.Restarts, res.Iters)
	if res.StepHalvings > 0 {
		fmt.Printf("step halvings: %d (a cycle whose first window was too deep for the basis reran at half the step)\n", res.StepHalvings)
	}
	if rep := res.Precision; rep != nil {
		fmt.Printf("precision: %s (windows fp64/fp32: %d/%d, compressed halos: %d, refinements: %d, final level: %s)\n",
			rep.Mode, rep.WindowsFP64, rep.WindowsFP32, rep.CompressedTransfers, rep.Refinements, rep.FinalLevel)
	}
	fmt.Printf("relative residual (balanced system): %.3e\n", res.RelRes)
	fmt.Printf("true relative residual:              %.3e\n", core.ResidualNorm(a, b, res.X))
	fmt.Printf("wall time: %v   modeled device time: %.3f ms\n", wall, res.Stats.TotalTime()*1e3)
	if res.Restarts > 0 {
		fmt.Printf("modeled time per restart: %.3f ms\n", res.Stats.TotalTime()/float64(res.Restarts)*1e3)
	}
	fmt.Printf("\nper-phase ledger:\n%s", res.Stats.String())
	if res.Stats.TrackedDevices() > 1 {
		fmt.Printf("\nper-device ledger:\n%s", res.Stats.DeviceString())
	}

	if len(res.History) > 0 {
		fmt.Printf("\nresidual history (per restart):\n")
		for i, r := range res.History {
			fmt.Printf("  restart %3d: %.3e\n", i+1, r)
		}
	}

	if *trace > 0 {
		fmt.Printf("\nlast %d ledger events:\n", *trace)
		fmt.Printf("%8s %-8s %-10s %10s %12s\n", "seq", "phase", "kind", "bytes", "time (us)")
		for _, e := range res.Stats.Trace() {
			fmt.Printf("%8d %-8s %-10s %10d %12.2f\n", e.Seq, e.Phase, e.Kind, e.Bytes, e.Time*1e6)
		}
	}

	if *traceout != "" {
		f, err := os.Create(*traceout)
		if err != nil {
			fatal(err)
		}
		err = gpu.WriteChromeTrace(f, []gpu.Trace{{Name: *solver + "/" + name, Events: res.Stats.Trace()}})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *traceout)
	}

	if jt != nil {
		jt.AttachStats(res.Stats)
		jt.SetRootAttr("converged", fmt.Sprintf("%t", res.Converged))
		jt.SetRootAttr("restarts", fmt.Sprintf("%d", res.Restarts))
		jt.FinishRoot(float64(time.Now().UnixNano())/1e9, res.Stats.TotalTime())
		fmt.Printf("\ntraceparent: %s\n", jt.Root().Traceparent())
	}
	if *spansout != "" {
		f, err := os.Create(*spansout)
		if err != nil {
			fatal(err)
		}
		err = jt.WriteSpansJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *spansout)
	}

	if *telemetry != "" {
		if err := os.WriteFile(*telemetry, telBuf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *telemetry)
	}
	if reg != nil {
		obs.CollectStats(reg, res.Stats)
		obs.ObserveTrace(reg, res.Stats.Trace())
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fatal(err)
		}
		err = reg.WritePrometheus(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *metrics)
	}
	if *serve != "" {
		traces := func() []gpu.Trace {
			return []gpu.Trace{{Name: *solver + "/" + name, Events: res.Stats.Trace()}}
		}
		_, addr, err := obs.Serve(*serve, obs.Handler(reg, traces))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving /metrics, /metrics.json, /trace.json, /debug/pprof on http://%s (ctrl-C to stop)\n", addr)
		select {}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cagmres:", err)
	os.Exit(1)
}
