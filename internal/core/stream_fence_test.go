package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
	"cagmres/internal/sparse"
)

// streamArm runs one solve with an in-memory telemetry sink and prints
// everything a caller can observe about it: the full record stream, the
// ledger table plus the exact per-phase host charges, the modeled clock
// under both schedules, the outer-loop counters, the fault and precision
// reports, the error, and a hash of the solution's bits. sink, when
// non-nil, sees every record too (the cancel arms drive it). An arm whose
// options fail Check says so, which no arm of the golden does.
func streamArm(sb *strings.Builder, name string, solve func(*Problem, Options) (*Result, error),
	p *Problem, opts Options, sink obs.Sink) {
	fmt.Fprintf(sb, "== %s\n", name)
	solver := "ca"
	if reflect.ValueOf(solve).Pointer() == reflect.ValueOf(GMRES).Pointer() {
		solver = "gmres"
	}
	if _, err := Check(solver, opts, p.A); err != nil {
		fmt.Fprintf(sb, "check %v\n", err)
	}
	opts.Telemetry = obs.MultiSink(sink, obs.SinkFunc(func(r obs.Record) {
		fmt.Fprintf(sb, "%s %d %d %.15e %.15e %q %q %.15e\n",
			r.Kind, r.Restart, r.Step, r.RelRes, r.OrthoLoss, r.TSQR, r.Precision, r.Clock)
	}))
	res, err := solve(p, opts)
	fmt.Fprintf(sb, "err %v\n", err)
	if res == nil {
		sb.WriteString("result nil\n")
		return
	}
	sb.WriteString(res.Stats.String())
	for _, ph := range res.Stats.Phases() {
		st := res.Stats.Phase(ph)
		fmt.Fprintf(sb, "phase %s host %.15e hostflops %.15e total %.15e\n", ph, st.HostTime, st.HostFlops, st.Total())
	}
	fmt.Fprintf(sb, "total %.15e\n", res.Stats.TotalTime())
	if res.Faults == nil {
		// A healed solve finishes on the survivors' context; the timeline
		// of the one the caller holds stops at the death.
		fmt.Fprintf(sb, "overlapped %.15e\n", p.Ctx.OverlappedTime())
	}
	fmt.Fprintf(sb, "converged %v canceled %v restarts %d iters %d relres %.15e\n",
		res.Converged, res.Canceled, res.Restarts, res.Iters, res.RelRes)
	for i, h := range res.History {
		fmt.Fprintf(sb, "history[%d] %.15e\n", i, h)
	}
	if res.Faults != nil {
		fmt.Fprintf(sb, "faults %+v\n", *res.Faults)
	}
	if res.Precision != nil {
		fmt.Fprintf(sb, "precision %+v\n", *res.Precision)
	}
	hash := fnv.New64a()
	var buf [8]byte
	for _, x := range res.X {
		bits := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		hash.Write(buf[:])
	}
	fmt.Fprintf(sb, "x len %d bits %016x\n", len(res.X), hash.Sum64())
}

// TestSolverStreamFence pins what every solver arm emits and returns —
// telemetry stream, ledger, counters, reports and the solution's bits —
// captured on the two-loop solver code (runGMRES/runCAGMRES) before the
// restart driver replaced them. The driver must reproduce it byte for
// byte: the arms cover both Arnoldi variants, the seed and window cycles
// under every boundary event (window failure with step halving, narrowed
// precision, device loss with checkpoint resume, cancellation at a
// boundary and between windows, breakdowns, the trivial exits) and the
// Ritz-value path that rides the same cycles.
func TestSolverStreamFence(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 7)
	prepare := func(ctx *gpu.Context, a *sparse.CSR, b []float64, ordering Ordering, balance bool) *Problem {
		t.Helper()
		p, err := NewProblem(ctx, a, b, ordering, balance)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	problem := func(ng int, b []float64) *Problem {
		return prepare(gpu.NewContext(ng, gpu.M2090()), a, b, KWay, true)
	}
	// The same system on a profile whose transfer engines take bfloat16.
	narrowed := func() *Problem {
		return prepare(gpu.NewContext(3, bf16Profile()), a, b, KWay, true)
	}
	// A system whose monomial basis is too ill-conditioned for CholQR at
	// large s.
	fragile := func() *Problem {
		return prepare(gpu.NewContext(2, gpu.M2090()), laplace2D(22, 22, 0.4), randomRHS(484, 31), Natural, true)
	}
	var sb strings.Builder

	streamArm(&sb, "gmres mgs", GMRES, problem(3, b), Options{M: 20, Tol: 1e-8, Ortho: "MGS"}, nil)
	streamArm(&sb, "gmres cgs", GMRES, problem(3, b), Options{M: 20, Tol: 1e-8, Ortho: "CGS"}, nil)
	streamArm(&sb, "gmres cgs overlap", GMRES, problem(3, b), Options{M: 20, Tol: 1e-8, Ortho: "CGS", Overlap: true}, nil)
	streamArm(&sb, "gmres maxrestarts", GMRES, problem(2, b), Options{M: 8, Tol: 1e-12, MaxRestarts: 3}, nil)
	streamArm(&sb, "ca newton cholqr", CAGMRES, problem(3, b), Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"}, nil)
	streamArm(&sb, "ca newton cholqr overlap", CAGMRES, problem(3, b), Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Overlap: true}, nil)
	streamArm(&sb, "ca monomial cgs", CAGMRES, problem(3, b), Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CGS", Basis: "monomial"}, nil)
	streamArm(&sb, "ca 2xcholqr borth mgs", CAGMRES, problem(2, b), Options{M: 24, S: 8, Tol: 1e-8, Ortho: "2xCholQR", BOrth: "MGS"}, nil)
	streamArm(&sb, "ca newton s=1", CAGMRES, problem(2, b), Options{M: 12, S: 1, Tol: 1e-6, Ortho: "CGS"}, nil)
	streamArm(&sb, "ca maxrestarts", CAGMRES, problem(2, b), Options{M: 10, S: 5, Tol: 1e-12, MaxRestarts: 3, Ortho: "CholQR"}, nil)

	// With s = m the first window fails and the solver halves s.
	streamArm(&sb, "ca adaptive s", CAGMRES, fragile(), Options{M: 30, S: 30, Tol: 1e-6, MaxRestarts: 400,
		Ortho: "CholQR", Basis: "monomial"}, nil)
	// A shallower window survives at its full depth...
	streamArm(&sb, "ca monomial deep", CAGMRES, fragile(), Options{M: 30, S: 10, Tol: 1e-6, MaxRestarts: 60,
		Ortho: "CholQR", Basis: "monomial"}, nil)

	// ...a deeper one is halved until it factors.
	streamArm(&sb, "ca window halved", CAGMRES, fragile(), Options{M: 30, S: 15, Tol: 1e-6, MaxRestarts: 60,
		Ortho: "CholQR", Basis: "monomial"}, nil)

	// diag(1, 1, 0) with b = ones: after the first restart the residual
	// e_3 spans A's null space, so even one CholQR step (Gram pivot 0)
	// cannot factor and the solve stops with an invariant breakdown.
	singular := sparse.FromCoords(3, 3, []sparse.Coord{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}})
	streamArm(&sb, "ca invariant at s=1", CAGMRES, prepare(gpu.NewContext(1, gpu.M2090()), singular, onesB(3), Natural, false),
		Options{M: 2, S: 2, Ortho: "CholQR"}, nil)

	// Six distinct eigenvalues: the Krylov space is invariant after six
	// vectors — happy breakdown in Arnoldi, a rank-deficient (discarded)
	// second window in the CA cycle.
	eigs := make([]float64, 60)
	for i := range eigs {
		eigs[i] = float64(i%6 + 1)
	}
	invariant := func() *Problem {
		return prepare(gpu.NewContext(2, gpu.M2090()), spectrumMatrix(eigs, 0, 1), randomRHS(60, 31), Natural, false)
	}
	streamArm(&sb, "gmres mgs invariant", GMRES, invariant(), Options{M: 20, Tol: 1e-10, Ortho: "MGS"}, nil)
	streamArm(&sb, "gmres cgs invariant", GMRES, invariant(), Options{M: 20, Tol: 1e-10, Ortho: "CGS"}, nil)
	streamArm(&sb, "ca newton invariant", CAGMRES, invariant(), Options{M: 20, S: 4, Tol: 1e-10, MaxRestarts: 10, Ortho: "CholQR"}, nil)
	streamArm(&sb, "ca monomial invariant", CAGMRES, invariant(), Options{M: 20, S: 4, Tol: 1e-10, MaxRestarts: 10,
		Ortho: "CholQR", Basis: "monomial"}, nil)

	for _, prec := range []string{PrecisionMixed, PrecisionAdaptive} {
		streamArm(&sb, "ca "+prec+" bf16", CAGMRES, narrowed(), Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR",
			Precision: prec}, nil)
	}

	// Device loss mid-solve: re-partition onto the survivors and resume
	// from the last restart checkpoint.
	for _, c := range []struct {
		name  string
		solve func(*Problem, Options) (*Result, error)
		opts  Options
		frac  float64
	}{
		{"gmres device loss", GMRES, Options{M: 20, Tol: 1e-6, Ortho: "CGS"}, 0.5},
		{"ca device loss in seed cycle", CAGMRES, chaosOpts(), 0.5},
		{"ca device loss", CAGMRES, chaosOpts(), 0.8},
	} {
		ref, err := c.solve(problem(3, b), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		pf := problem(3, b)
		pf.Ctx.InjectFaults(gpu.FaultPlan{Seed: 42, Deaths: []gpu.DeviceDeath{{Device: 1, At: c.frac * ref.Stats.TotalTime()}}})
		streamArm(&sb, c.name, c.solve, pf, c.opts, nil)
	}
	// The healed attempt resumes at the width the policy had tightened to.
	adaptive := Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Precision: PrecisionAdaptive}
	ref, err := CAGMRES(narrowed(), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	pn := narrowed()
	pn.Ctx.InjectFaults(gpu.FaultPlan{Seed: 42, Deaths: []gpu.DeviceDeath{{Device: 2, At: 0.9 * ref.Stats.TotalTime()}}})
	streamArm(&sb, "ca adaptive bf16 device loss", CAGMRES, pn, adaptive, nil)
	pt := problem(2, b)
	pt.Ctx.InjectFaults(gpu.FaultPlan{Seed: 9, TransferFaultProb: 0.05})
	streamArm(&sb, "ca transfer retries", CAGMRES, pt, chaosOpts(), nil)

	for _, c := range []struct {
		name  string
		solve func(*Problem, Options) (*Result, error)
		opts  Options
		kind  string
		n     int
	}{
		{"gmres canceled at boundary", GMRES, Options{M: 10, Tol: 1e-12, MaxRestarts: 200}, "restart", 1},
		{"ca canceled between windows", CAGMRES, Options{M: 20, S: 5, Tol: 1e-12, MaxRestarts: 200, Ortho: "CholQR"}, "window", 2},
		{"ca canceled before first window", CAGMRES, Options{M: 20, S: 5, Tol: 1e-12, MaxRestarts: 200, Ortho: "CholQR"}, "restart", 2},
		{"ca canceled in seed cycle", CAGMRES, Options{M: 20, S: 5, Tol: 1e-12, MaxRestarts: 200, Ortho: "CholQR"}, "cycle", 1},
	} {
		cctx, cancel := context.WithCancel(context.Background())
		c.opts.Ctx = cctx
		streamArm(&sb, c.name, c.solve, problem(2, b), c.opts, cancelAfter(cancel, c.kind, c.n))
		cancel()
	}

	zero := make([]float64, 400)
	streamArm(&sb, "gmres b=0", GMRES, problem(2, zero), Options{M: 10}, nil)
	streamArm(&sb, "ca b=0", CAGMRES, problem(2, zero), Options{M: 10, S: 5}, nil)
	huge := make([]float64, 400)
	for i := range huge {
		huge[i] = 1e200
	}
	overflowing := func() *Problem { return prepare(gpu.NewContext(2, gpu.M2090()), a, huge, Natural, false) }
	streamArm(&sb, "gmres non-finite b", GMRES, overflowing(), Options{M: 10}, nil)
	streamArm(&sb, "ca non-finite b", CAGMRES, overflowing(), Options{M: 10, S: 5}, nil)

	// Overflowing Krylov vectors: the breakdown stages.
	for _, c := range []struct {
		name  string
		solve func(*Problem, Options) (*Result, error)
		opts  Options
	}{
		{"gmres breakdown", GMRES, Options{M: 10, Tol: 1e-8, MaxRestarts: 20, Ortho: "CGS"}},
		{"ca newton breakdown", CAGMRES, Options{M: 10, S: 5, Tol: 1e-8, MaxRestarts: 20, Ortho: "CholQR"}},
		{"ca monomial breakdown", CAGMRES, Options{M: 10, S: 5, Tol: 1e-8, MaxRestarts: 20, Ortho: "CholQR", Basis: "monomial"}},
	} {
		pb := prepare(gpu.NewContext(2, gpu.M2090()), extremeDiag(32, 1e308), onesB(32), Natural, false)
		streamArm(&sb, c.name, c.solve, pb, c.opts, nil)
	}

	// The Ritz-value path: standard Arnoldi and CA-Arnoldi.
	start := randomRHS(400, 5)
	for _, c := range []struct {
		name  string
		p     *Problem
		opts  Options
		start []float64
	}{
		{"ritz s=1", problem(3, zero), Options{M: 20, S: 1}, start},
		{"ritz s=5", problem(3, zero), Options{M: 20, S: 5, Ortho: "CholQR"}, start},
		{"ritz first window fails", problem(3, zero), Options{M: 30, S: 30, Ortho: "CholQR"}, start},
		{"ritz s=1 invariant", invariant(), Options{M: 12, S: 1}, nil},
		{"ritz s=4 invariant", invariant(), Options{M: 12, S: 4, Ortho: "CholQR"}, randomRHS(60, 5)},
	} {
		pr := c.p
		ritz, err := RitzValues(pr, c.opts, c.start)
		fmt.Fprintf(&sb, "== %s\nerr %v\n", c.name, err)
		for i, z := range ritz {
			fmt.Fprintf(&sb, "ritz[%d] %.15e %.15e\n", i, real(z), imag(z))
		}
		sb.WriteString(pr.Ctx.Stats().String())
		for _, ph := range pr.Ctx.Stats().Phases() {
			st := pr.Ctx.Stats().Phase(ph)
			fmt.Fprintf(&sb, "phase %s host %.15e hostflops %.15e total %.15e\n", ph, st.HostTime, st.HostFlops, st.Total())
		}
		fmt.Fprintf(&sb, "total %.15e overlapped %.15e\n", pr.Ctx.Stats().TotalTime(), pr.Ctx.OverlappedTime())
	}

	fenceCompare(t, "solver_stream.golden", sb.String())
}
