package core

import (
	"fmt"
	"math"

	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/ortho"
)

// The precision modes Options.Precision accepts.
const (
	// PrecisionFP64 is the historical full-double pipeline (the default;
	// an empty Options.Precision means fp64). Bit-identical to every
	// release before the precision policy existed.
	PrecisionFP64 = "fp64"
	// PrecisionMixed generates the CA basis in single precision — fp32
	// matrix-powers storage, fp32 Gram/projection kernels, half-width
	// coefficient transfers, and bfloat16-compressed halos when the
	// machine profile claims BF16Transfer — while the Givens/LSQ path,
	// the small host factorizations, and the solution update stay
	// double. Every restart boundary recomputes the true residual in
	// FP64 and corrects x in FP64: classic iterative refinement with a
	// low-precision inner solver.
	PrecisionMixed = "mixed"
	// PrecisionAdaptive starts at the narrowest width the machine
	// supports and tightens — never loosens — at restart boundaries:
	// toward fp32 transfers midway to the tolerance, and to full fp64
	// for the final approach. Stalled restarts and per-window
	// orthogonality-loss telemetry force early tightening.
	PrecisionAdaptive = "adaptive"
)

// NormalizePrecision canonicalizes a precision mode: the empty string is
// fp64, known names pass through, anything else errors.
func NormalizePrecision(p string) (string, error) {
	switch p {
	case "", PrecisionFP64:
		return PrecisionFP64, nil
	case PrecisionMixed, PrecisionAdaptive:
		return p, nil
	}
	return "", fmt.Errorf("core: unknown precision %q (want fp64, mixed or adaptive)", p)
}

// PrecisionReport summarizes what the precision policy actually did
// during a solve. Result.Precision carries one for mixed/adaptive runs
// (nil for fp64).
type PrecisionReport struct {
	// Mode is the normalized Options.Precision.
	Mode string `json:"mode"`
	// WindowsFP64 and WindowsFP32 count matrix-powers windows generated
	// at each basis storage width.
	WindowsFP64 int `json:"windows_fp64"`
	WindowsFP32 int `json:"windows_fp32"`
	// CompressedTransfers counts halo exchanges shipped bfloat16-
	// compressed.
	CompressedTransfers int `json:"compressed_transfers"`
	// Refinements counts restart boundaries that recomputed the true
	// residual and corrected the iterate in FP64 while the basis
	// pipeline ran narrowed — the iterative-refinement steps.
	Refinements int `json:"refinements"`
	// FinalLevel names the width the pipeline ended at ("fp64", "fp32",
	// "fp32+bf16").
	FinalLevel string `json:"final_level"`
}

// Precision levels, narrowest first in tightening order: level 2 is fp32
// basis storage with bf16-compressed halos, level 1 fp32 storage and
// fp32 halos, level 0 the full-double pipeline.
const (
	precLevelFP64 = 0
	precLevelFP32 = 1
	precLevelBF16 = 2
)

// Adaptive tightening thresholds. The policy anchors the log-residual
// journey at the first restart boundary it observes (after the FP64 seed
// cycle, so the anchor reflects where the CA pipeline actually starts)
// and tightens by the fraction of that journey still remaining: halo
// compression is dropped once less than fracFP32 of the log-distance to
// the tolerance is left, and the pipeline returns to full double for the
// final fracFP64 of the approach. Fractions — not absolute multiples of
// Tol — keep the schedule scale-invariant: a problem whose seed cycle
// lands two decades from the tolerance narrows just as long,
// proportionally, as one that starts six decades out. stallRatio is the
// minimum per-restart residual reduction a narrowed level must deliver
// to keep its width, and orthoLossTighten is the per-window
// orthogonality loss that forces tightening regardless of residual
// progress (fp32's roundoff floor amplified by kappa^2 has overtaken the
// basis).
const (
	fracFP32         = 0.5
	fracFP64         = 0.25
	stallRatio       = 0.9
	orthoLossTighten = 1e-3
)

// precisionPolicy drives the per-restart width decisions of one solve
// attempt. The zero value is not useful; build with newPrecisionPolicy.
type precisionPolicy struct {
	mode   string
	bf16OK bool
	level  int
	// maxWinLoss is the largest per-window orthogonality loss observed
	// since the last restart boundary.
	maxWinLoss float64
	prevRelres float64
	// logDist0 is log(relres/tol) at the first boundary the adaptive
	// schedule observed — the anchor the remaining-journey fractions are
	// measured against. Zero until anchored.
	logDist0 float64
	report   *PrecisionReport
}

// newPrecisionPolicy builds the policy for a normalized mode. bf16OK
// states whether the machine profile claims bfloat16-capable transfer
// engines; without it the narrowest level is fp32/fp32.
func newPrecisionPolicy(mode string, bf16OK bool) *precisionPolicy {
	pol := &precisionPolicy{mode: mode, bf16OK: bf16OK}
	switch mode {
	case PrecisionMixed, PrecisionAdaptive:
		pol.level = precLevelBF16
		if !bf16OK {
			pol.level = precLevelFP32
		}
		pol.report = &PrecisionReport{Mode: mode}
	default:
		pol.level = precLevelFP64
	}
	return pol
}

// active reports whether the pipeline is currently narrowed.
func (pol *precisionPolicy) active() bool { return pol.level != precLevelFP64 }

// widths returns the storage and transfer element widths of the current
// level.
func (pol *precisionPolicy) widths() (storage, transfer gpu.Elem) {
	switch pol.level {
	case precLevelBF16:
		return gpu.Elem32, gpu.ElemBF16
	case precLevelFP32:
		return gpu.Elem32, gpu.Elem32
	}
	return gpu.Elem64, gpu.Elem64
}

// levelName names the current level for telemetry and the report.
func (pol *precisionPolicy) levelName() string {
	switch pol.level {
	case precLevelBF16:
		return "fp32+bf16"
	case precLevelFP32:
		return "fp32"
	}
	return "fp64"
}

// tag is the telemetry label of the current level: empty in fp64 mode,
// so full-double record streams stay byte-identical to releases that
// predate the policy.
func (pol *precisionPolicy) tag() string {
	if pol.report == nil {
		return ""
	}
	return pol.levelName()
}

// restore rewinds the policy to a checkpointed level (tighten-only:
// a checkpoint can never widen the pipeline past the mode's start).
func (pol *precisionPolicy) restore(level int) {
	if level < pol.level {
		pol.level = level
	}
}

// observeRestart runs the tighten-only transition at a restart boundary,
// fed with the FP64 true relative residual just computed there. Mixed
// keeps its fixed width; adaptive tightens when the remaining fraction
// of the log-residual journey shrinks, when a narrowed restart stalled,
// or when window orthogonality loss shows the narrow basis has degraded.
func (pol *precisionPolicy) observeRestart(relres, tol float64) {
	if pol.mode != PrecisionAdaptive || !pol.active() {
		pol.prevRelres = relres
		pol.maxWinLoss = 0
		return
	}
	if pol.logDist0 == 0 {
		// First boundary: anchor the journey. The anchor restart itself
		// runs at the mode's starting width — correctness does not depend
		// on the width (convergence is only ever declared from the FP64
		// boundary residual), so the narrowest level gets at least one
		// cycle to prove itself even on nearly-converged problems.
		if relres > tol {
			pol.logDist0 = math.Log(relres / tol)
		}
		pol.prevRelres = relres
		pol.maxWinLoss = 0
		return
	}
	remaining := 0.0
	if relres > tol {
		remaining = math.Log(relres/tol) / pol.logDist0
	}
	target := pol.level
	switch {
	case remaining <= fracFP64:
		target = precLevelFP64
	case remaining <= fracFP32 && target > precLevelFP32:
		target = precLevelFP32
	}
	if pol.prevRelres > 0 && relres > stallRatio*pol.prevRelres && target == pol.level {
		// The narrowed pipeline is no longer reducing the residual:
		// its roundoff floor is in the way. Tighten one notch.
		target = pol.level - 1
	}
	if pol.maxWinLoss > orthoLossTighten && target == pol.level {
		target = pol.level - 1
	}
	if target < pol.level {
		pol.level = target
	}
	pol.prevRelres = relres
	pol.maxWinLoss = 0
}

// strategies are a CA solve's TSQR and BOrth bound to its attempt's ortho
// scratch: at full width, and narrowed to fp32 where the strategy has a
// single-precision kernel (CholQR's Gram matrix, BOrth-CGS's projection).
// Both are bound when the attempt starts, so a restart that narrows or
// tightens picks one and binds nothing.
type strategies struct {
	tsqr, tsqr32   ortho.TSQR
	borth, borth32 ortho.BOrth
}

// bindStrategies binds tsqr and borth to sc, and their fp32 variants too
// when narrow is set (an attempt that starts at full width never narrows).
func bindStrategies(sc *ortho.Scratch, tsqr ortho.TSQR, borth ortho.BOrth, narrow bool) strategies {
	st := strategies{tsqr: sc.Bind(tsqr), borth: sc.BindBOrth(borth)}
	st.tsqr32, st.borth32 = st.tsqr, st.borth
	if !narrow {
		return st
	}
	if _, ok := tsqr.(ortho.CholQR); ok {
		st.tsqr32 = sc.Bind(ortho.CholQR{GramElem: gpu.Elem32})
	}
	if _, ok := borth.(ortho.BOrthCGS); ok {
		st.borth32 = sc.BindBOrth(ortho.BOrthCGS{Elem: gpu.Elem32})
	}
	return st
}

// apply configures the CA pipeline for the current level: the matrix
// powers kernel's storage/transfer widths and, where the chosen
// strategies support it, single-precision Gram and projection kernels.
// Strategies without a narrow variant (MGS, CAQR, explicit OrthoImpl
// wrappers) run unchanged — the basis they consume is still narrowed.
func (pol *precisionPolicy) apply(mpk *dist.MPK, st *strategies) (ortho.TSQR, ortho.BOrth) {
	storage, transfer := pol.widths()
	mpk.SetPrecision(storage, transfer)
	if !pol.active() {
		return st.tsqr, st.borth
	}
	return st.tsqr32, st.borth32
}

// tightenOnFailure responds to a rank-deficient window factorization
// while the pipeline runs narrowed: when the window depth is already
// minimal, the width is what destroyed the Gram conditioning, so step
// one level toward full double and let the caller rerun the cycle.
// This applies to mixed as well as adaptive — a fixed-width pipeline
// that cannot factor its windows has no useful answer at that width,
// and the report's FinalLevel records the forced tightening. Reports
// whether it tightened.
func (pol *precisionPolicy) tightenOnFailure() bool {
	if !pol.active() {
		return false
	}
	pol.level--
	return true
}

// observeWindow records one generated window: storage-width accounting
// for the report and the orthogonality-loss guard for the next restart
// boundary.
func (pol *precisionPolicy) observeWindow(winLoss float64) {
	if pol.report == nil {
		return
	}
	if pol.active() {
		pol.report.WindowsFP32++
		if pol.level == precLevelBF16 {
			pol.report.CompressedTransfers++
		}
	} else {
		pol.report.WindowsFP64++
	}
	if winLoss > pol.maxWinLoss {
		pol.maxWinLoss = winLoss
	}
}

// observeRefinement records one FP64 restart-boundary correction taken
// while the pipeline ran narrowed.
func (pol *precisionPolicy) observeRefinement() {
	if pol.report != nil && pol.active() {
		pol.report.Refinements++
	}
}

// roundWindow narrows an orthonormalized window to the basis storage
// width, so the stored basis never carries more information than a
// narrow device buffer would hold.
func (pol *precisionPolicy) roundWindow(win []*la.Dense) {
	storage, _ := pol.widths()
	if storage == gpu.Elem64 {
		return
	}
	for _, w := range win {
		for j := 0; j < w.Cols; j++ {
			if storage == gpu.ElemBF16 {
				la.RoundBF16(w.Col(j))
			} else {
				la.RoundF32(w.Col(j))
			}
		}
	}
}

// finish stamps the report with the level the solve ended at and
// returns it (nil for fp64 mode).
func (pol *precisionPolicy) finish() *PrecisionReport {
	if pol.report != nil {
		pol.report.FinalLevel = pol.levelName()
	}
	return pol.report
}
