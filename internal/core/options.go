package core

import (
	"context"
	"fmt"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
	"cagmres/internal/ortho"
	"cagmres/internal/sparse"
)

// Options configures the solvers.
type Options struct {
	// M is the restart length (the paper sweeps 30..180).
	M int
	// S is the CA-GMRES step/block size (ignored by GMRES). It is an
	// upper bound: when a cycle's first window is numerically rank
	// deficient — the basis grew too ill-conditioned for this depth —
	// CA-GMRES halves the step and reruns the cycle from the same
	// boundary, down to s = 1; the smaller step holds for the rest of the
	// solve (the adaptive step size the paper lists as future work, its
	// ref. [23]).
	S int
	// Tol is the relative residual reduction target; the paper declares
	// convergence at 1e-4.
	Tol float64
	// MaxRestarts bounds the restart cycles the solve counts. A cycle
	// rerun at a smaller step (see S) is one cycle.
	MaxRestarts int
	// Ortho selects the orthogonalization: for GMRES, "MGS" or "CGS"
	// (the Arnoldi variants of Figure 14); for CA-GMRES, a TSQR strategy
	// name, optionally "2x"-prefixed ("MGS", "CGS", "CholQR", "SVQR",
	// "CAQR", "2xCGS", "2xCholQR", ...).
	Ortho string
	// BOrth selects the block-orthogonalization variant for CA-GMRES:
	// "CGS" (paper default) or "MGS".
	BOrth string
	// Basis selects the CA-GMRES Krylov basis: "newton" (default, with
	// Leja-ordered Ritz shifts harvested from the first restart) or
	// "monomial".
	Basis string
	// OrthoImpl, when non-nil, overrides Ortho with an explicit TSQR
	// implementation (the benchmark harness uses it to wrap strategies
	// with error instrumentation for Figure 13).
	OrthoImpl ortho.TSQR
	// Telemetry, when non-nil, receives a convergence-telemetry record
	// stream: per inner step (GMRES) or matrix-powers window (CA-GMRES),
	// per restart cycle, and a final "done" record whose RelRes matches
	// the returned Result. Every record carries the ledger's modeled
	// clock at emission. A nil sink disables telemetry at zero cost.
	Telemetry obs.Sink
	// Overlap enables the overlapped stream schedule on the device
	// context for this solve: halo transfers overlap local SpMV in the
	// matrix powers kernel, host-side Hessenberg/Givens work overlaps
	// device GEMMs, and modeled time becomes the critical path through
	// the stream dependency DAG (Context.OverlappedTime). Off by default:
	// the synchronous barrier schedule, identical to previous behavior.
	Overlap bool
	// Profile, when non-nil, re-targets the device context at this
	// machine profile for the solve: cost model and interconnect topology
	// swap together before the ledger resets (see gpu.Profile). Profiles
	// reorder modeled time, never arithmetic — iterates and convergence
	// histories are bit-identical across profiles. Nil keeps whatever
	// profile the context already carries (the paper's M2090 host-hub by
	// default).
	Profile *gpu.Profile
	// Ctx, when non-nil, makes the solve cancelable: the solvers check it
	// at every restart boundary (and CA-GMRES additionally between
	// matrix-powers windows) and, once it is canceled or past its
	// deadline, stop early and return the best-so-far Result with
	// Canceled set. A nil Ctx solves to convergence or MaxRestarts, as
	// before. This is what lets the internal/sched scheduler enforce
	// per-job deadlines without tearing down the device context.
	Ctx context.Context
	// Precision selects the element-width policy of the CA basis
	// pipeline: "fp64" (default, the historical full-double solver,
	// bit-identical to before this option existed), "mixed" (fp32 basis
	// generation with FP64 correction at every restart boundary —
	// iterative refinement with a narrow inner solver), or "adaptive"
	// (start narrow while the residual is large, tighten toward fp64
	// near convergence, driven by the restart-boundary true residual
	// and per-window orthogonality-loss telemetry). Whatever the mode,
	// convergence is only ever declared from the FP64-recomputed true
	// residual. GMRES supports only "fp64". See NormalizePrecision.
	Precision string
}

// canceled reports whether the solve's optional context has been
// canceled or has exceeded its deadline.
func (o *Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o *Options) defaults() {
	if o.M == 0 {
		o.M = 30
	}
	if o.S == 0 {
		o.S = 10
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 500
	}
	if o.Ortho == "" {
		o.Ortho = "CGS"
	}
	if o.BOrth == "" {
		o.BOrth = "CGS"
	}
	if o.Basis == "" {
		o.Basis = "newton"
	}
	if o.Precision == "" {
		o.Precision = PrecisionFP64
	}
}

// SolverByName is the one definition of the solver names: "gmres", "ca",
// and "" for the default (CA-GMRES). Check validates against it and the
// scheduler dispatches on it.
func SolverByName(name string) (func(*Problem, Options) (*Result, error), error) {
	switch name {
	case "gmres":
		return GMRES, nil
	case "ca", "":
		return CAGMRES, nil
	}
	return nil, fmt.Errorf("core: unknown solver %q", name)
}

// Check is the one check of a solve's options. It applies the defaults
// and returns the options the named solver (see SolverByName) runs with,
// or the error of the first setting it cannot: an unknown name, a
// restart length outside 1 ≤ M ≤ n, a CA step outside 1 ≤ S ≤ M, an
// orthogonalization or precision GMRES does not support. Settings a
// solver ignores (GMRES: S, BOrth, Basis) are not checked. a is the
// system matrix, which must be square; nil checks everything that needs
// no matrix. GMRES and CAGMRES run it before they touch the device, so
// a front end that runs it first rejects exactly what they would.
func Check(solver string, opts Options, a *sparse.CSR) (Options, error) {
	c, err := check(solver, opts, a)
	return c.Options, err
}

// checked is an option set that passed Check, with the strategies its
// names select (CA-GMRES only).
type checked struct {
	Options
	tsqr  ortho.TSQR
	borth ortho.BOrth
}

func check(solver string, opts Options, a *sparse.CSR) (c checked, err error) {
	opts.defaults()
	c.Options = opts
	if _, err := SolverByName(solver); err != nil {
		return c, err
	}
	if a != nil {
		if err := checkSquare(a); err != nil {
			return c, err
		}
	}
	switch {
	case opts.M < 1:
		return c, fmt.Errorf("core: restart length m=%d, want at least 1", opts.M)
	case a != nil && opts.M > a.Rows:
		return c, fmt.Errorf("core: restart length m=%d exceeds n=%d", opts.M, a.Rows)
	}
	if solver == "gmres" {
		if opts.Ortho != "MGS" && opts.Ortho != "CGS" {
			return c, fmt.Errorf("core: GMRES supports Ortho MGS or CGS, got %q", opts.Ortho)
		}
	} else {
		if opts.S < 1 || opts.S > opts.M {
			return c, fmt.Errorf("core: step size s=%d out of range for m=%d", opts.S, opts.M)
		}
		if c.tsqr, err = ortho.ByName(opts.Ortho); err != nil {
			return c, err
		}
		if opts.OrthoImpl != nil {
			c.tsqr = opts.OrthoImpl
		}
		if c.borth, err = ortho.BOrthByName(opts.BOrth); err != nil {
			return c, err
		}
		if opts.Basis != "newton" && opts.Basis != "monomial" {
			return c, fmt.Errorf("core: unknown basis %q", opts.Basis)
		}
	}
	if c.Precision, err = NormalizePrecision(opts.Precision); err != nil {
		return c, err
	}
	if solver == "gmres" && c.Precision != PrecisionFP64 {
		// The precision policy narrows the CA basis pipeline; plain GMRES
		// has no window structure to refine over, so it stays fp64.
		return c, fmt.Errorf("core: GMRES supports only fp64 precision, got %q", c.Precision)
	}
	return c, nil
}
