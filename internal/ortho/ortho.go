// Package ortho implements the five orthogonalization strategies the
// paper studies for the TSQR kernel of CA-GMRES — modified Gram-Schmidt
// (MGS), classical Gram-Schmidt (CGS), Cholesky QR (CholQR), singular
// value QR (SVQR) and communication-avoiding QR (CAQR) — together with
// the block orthogonalization (BOrth) kernels, reorthogonalization
// wrappers, and the error metrics of Figure 13.
//
// All kernels operate on a distributed tall-skinny window: a slice of
// per-device la.Dense panels (one panel per simulated GPU, produced by
// dist.Vectors.Window) whose vertical concatenation is the matrix V being
// factored. Communication is the paper's host-staged protocol, which
// gpu.Context implements once (internal/gpu/collective.go): a strategy is
// the kernels it launches and the all-reduces and broadcasts between
// them, and the ledger they charge is how the reproduction recovers
// Figure 10's communication counts.
package ortho

import (
	"errors"
	"fmt"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// ErrRankDeficient is returned when a strategy detects that the window's
// columns are (numerically) linearly dependent and cannot produce an
// invertible R factor.
var ErrRankDeficient = errors.New("ortho: window is numerically rank deficient")

// TSQR orthonormalizes a distributed tall-skinny window in place and
// returns the upper-triangular R with V_original = Q R. The R of a
// strategy bound to a Scratch lives in the scratch and stays valid until
// its next Factor; an unbound one's is the caller's to keep.
type TSQR interface {
	// Name identifies the strategy in tables ("MGS", "CholQR", ...).
	Name() string
	// Factor overwrites the window with Q and returns R. An error leaves
	// the window in an unspecified state and returns no R; a window
	// holding a NaN or an infinity is always ErrRankDeficient.
	Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error)
}

// cols returns the column count of a window, panicking on raggedness.
func cols(w []*la.Dense) int {
	if len(w) == 0 {
		panic("ortho: empty window")
	}
	c := w[0].Cols
	for _, p := range w {
		if p.Cols != c {
			panic(fmt.Sprintf("ortho: ragged window: %d vs %d cols", p.Cols, c))
		}
	}
	return c
}

// windowCols is cols for a window a strategy is about to run on ctx: one
// panel per device of the context, or the device goroutines would index
// past the window (or leave panels untouched).
func windowCols(ctx *gpu.Context, w []*la.Dense) int {
	if len(w) != ctx.NumDevices {
		panic(fmt.Sprintf("ortho: window of %d panels on a context of %d devices", len(w), ctx.NumDevices))
	}
	return cols(w)
}

// Reorth wraps a strategy with one reorthogonalization pass (the "2x"
// rows of Figure 14): the window is factored twice and the R factors are
// combined, R = R2 * R1. Classical Gram-Schmidt in particular often needs
// this to converge inside CA-GMRES.
type Reorth struct {
	Inner TSQR

	pass *twoPass // bound: the attempt's; nil: one on the heap per call
}

// Name returns "2xName" to match the paper's table notation.
func (r Reorth) Name() string { return "2x" + r.Inner.Name() }

// Factor runs the inner strategy twice.
func (r Reorth) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	tp := r.pass
	if tp == nil {
		tp = &twoPass{ws: &heap}
	}
	r1, err := r.Inner.Factor(ctx, w, phase)
	if err != nil {
		return nil, err
	}
	r1 = tp.keep(r1)
	r2, err := r.Inner.Factor(ctx, w, phase)
	if err != nil {
		return nil, err
	}
	return tp.combine(ctx, phase, r2, r1)
}

// ByName returns the strategy named by the CLI flags: MGS, CGS, CholQR,
// SVQR, CAQR, optionally prefixed with "2x" for reorthogonalization.
func ByName(name string) (TSQR, error) {
	reorth := false
	if len(name) > 2 && name[:2] == "2x" {
		reorth = true
		name = name[2:]
	}
	t, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("ortho: unknown strategy %q", name)
	}
	if reorth {
		return Reorth{Inner: t}, nil
	}
	return t, nil
}

// byName holds ByName's base strategies boxed once, so a solve that looks
// its strategy up allocates nothing for it.
var byName = map[string]TSQR{
	"MGS": MGS{}, "mgs": MGS{},
	"CGS": CGS{}, "cgs": CGS{},
	"CholQR": CholQR{}, "cholqr": CholQR{},
	"SVQR": SVQR{}, "svqr": SVQR{},
	"CAQR": CAQR{}, "caqr": CAQR{},
	"MixedCholQR": MixedCholQR{}, "mixedcholqr": MixedCholQR{},
	"MixedCholQR2": MixedCholQR{Refine: true}, "mixedcholqr2": MixedCholQR{Refine: true},
}

// All returns one instance of every base strategy, in the paper's order.
func All() []TSQR {
	return []TSQR{MGS{}, CGS{}, CholQR{}, SVQR{}, CAQR{}}
}
