package core

import (
	"fmt"
	"math"

	"cagmres/internal/la"
)

// BreakdownError reports a numerical breakdown: a NaN or ±Inf residual
// norm or basis quantity detected at a restart or matrix-powers window
// boundary, or a CA-GMRES restart that cannot take a single step. Once
// a non-finite value enters the recurrence every later iterate is
// garbage, so the solvers stop at the first boundary that sees one
// instead of spinning through MaxRestarts on NaNs. The error
// is terminal for the job — unlike a device fault, retrying the same
// system on a healthy context reproduces it bit-identically — which is
// why the scheduler must not requeue it and the server maps it to a
// client error (422 numerical_breakdown), not a retryable 5xx.
type BreakdownError struct {
	// Iter is the number of inner iterations completed when the
	// breakdown was detected.
	Iter int
	// Stage names the boundary that caught it: "residual" (restart
	// boundary), "window" (CA-GMRES Hessenberg estimate after a
	// matrix-powers window), "basis" (the window's generated basis
	// vectors themselves overflowed), or "invariant" (a restart's first
	// CA-GMRES window stayed rank deficient at s = 1 and full width).
	Stage string
}

func (e *BreakdownError) Error() string {
	if e.Stage == "invariant" {
		return fmt.Sprintf("core: numerical breakdown (rank-deficient window at s = 1) after %d iterations", e.Iter)
	}
	return fmt.Sprintf("core: numerical breakdown (non-finite %s) after %d iterations", e.Stage, e.Iter)
}

// nonFinite reports NaN or ±Inf.
func nonFinite(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }

// windowHasNonFinite scans a basis window's per-device panels for
// non-finite entries. It only runs on TSQR failure paths, so the scan
// costs the happy path nothing.
func windowHasNonFinite(w []*la.Dense) bool {
	for _, p := range w {
		for j := 0; j < p.Cols; j++ {
			for _, x := range p.Col(j) {
				if nonFinite(x) {
					return true
				}
			}
		}
	}
	return false
}
