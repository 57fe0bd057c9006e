package core

import (
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/sparse"
)

// TestCheckIsTheSolversOnlyCheck: every invalid option set a client can
// send is refused by Check with one message, and GMRES / CAGMRES refuse it
// with exactly that error before the ledger sees a charge — a probe charge
// made beforehand is all it holds afterwards, so the solvers neither reset
// nor touched it. (TestSolverStreamFence requires every golden arm to
// pass the same check.)
func TestCheckIsTheSolversOnlyCheck(t *testing.T) {
	a := laplace2D(6, 6, 0) // n = 36
	for _, tc := range []struct {
		name, solver string
		opts         Options
		want         string
	}{
		{"unknown solver", "bicgstab", Options{}, `core: unknown solver "bicgstab"`},
		{"unknown ortho", "ca", Options{Ortho: "bogus"}, `ortho: unknown strategy "bogus"`},
		{"unknown borth", "ca", Options{BOrth: "bogus"}, `ortho: unknown BOrth variant "bogus"`},
		{"unknown basis", "", Options{Basis: "bogus"}, `core: unknown basis "bogus"`},
		{"s above m", "ca", Options{M: 10, S: 20}, `core: step size s=20 out of range for m=10`},
		{"s below 1", "ca", Options{S: -1}, `core: step size s=-1 out of range for m=30`},
		{"m below 1", "ca", Options{M: -1}, `core: restart length m=-1, want at least 1`},
		{"gmres m below 1", "gmres", Options{M: -3}, `core: restart length m=-3, want at least 1`},
		{"m above n", "ca", Options{M: 37, S: 5}, `core: restart length m=37 exceeds n=36`},
		{"gmres m above n", "gmres", Options{M: 37}, `core: restart length m=37 exceeds n=36`},
		{"gmres cholqr", "gmres", Options{Ortho: "CholQR"}, `core: GMRES supports Ortho MGS or CGS, got "CholQR"`},
		{"gmres mixed", "gmres", Options{Precision: PrecisionMixed}, `core: GMRES supports only fp64 precision, got "mixed"`},
		{"unknown precision", "ca", Options{Precision: "fp16"}, `core: unknown precision "fp16" (want fp64, mixed or adaptive)`},
		{"gmres unknown precision", "gmres", Options{Precision: "fp16"}, `core: unknown precision "fp16" (want fp64, mixed or adaptive)`},
	} {
		_, err := Check(tc.solver, tc.opts, a)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Check = %v, want %s", tc.name, err, tc.want)
			continue
		}
		solve, err := SolverByName(tc.solver)
		if err != nil {
			continue // no solver to run: the name is the invalid option
		}
		p, perr := NewProblem(gpu.NewContext(2, gpu.M2090()), a, randomRHS(36, 1), Natural, false)
		if perr != nil {
			t.Fatal(perr)
		}
		p.Ctx.HostComputeOn("probe", 1e6)
		before := p.Ctx.Stats().String()
		if _, err := solve(p, tc.opts); err == nil || err.Error() != tc.want {
			t.Errorf("%s: solver error %v, want Check's %s", tc.name, err, tc.want)
		}
		if after := p.Ctx.Stats().String(); after != before {
			t.Errorf("%s: the refused solve changed the ledger:\n%s\nwas\n%s", tc.name, after, before)
		}
	}

	// Settings a solver ignores are not checked; the matrix is, once given.
	if _, err := Check("gmres", Options{S: 99, BOrth: "bogus", Basis: "bogus"}, a); err != nil {
		t.Errorf("GMRES refused settings it ignores: %v", err)
	}
	wide := sparse.FromCoords(2, 3, []sparse.Coord{{Row: 0, Col: 0, Val: 1}})
	if _, err := Check("ca", Options{M: 1, S: 1}, wide); err == nil || err.Error() != "core: matrix must be square, got 2x3" {
		t.Errorf("non-square matrix: %v", err)
	}
	if _, err := Check("ca", Options{M: 1000}, nil); err != nil {
		t.Errorf("without a matrix m is bounded below only: %v", err)
	}
	// Defaults are applied and the precision normalized.
	got, err := Check("", Options{}, a)
	if err != nil || got.M != 30 || got.S != 10 || got.Ortho != "CGS" || got.Basis != "newton" || got.Precision != PrecisionFP64 {
		t.Errorf("defaults: %+v, %v", got, err)
	}

	for _, name := range []string{"natural", "rcm", "kway", "hypergraph"} {
		if o, err := ParseOrdering(name); err != nil || string(o) != name {
			t.Errorf("ParseOrdering(%q) = %q, %v", name, o, err)
		}
	}
	const unknown = `core: unknown ordering "sorted"`
	if _, err := ParseOrdering("sorted"); err == nil || err.Error() != unknown {
		t.Errorf("ParseOrdering(sorted): %v", err)
	}
	if _, err := Prepare(gpu.NewContext(1, gpu.M2090()), a, "sorted", false); err == nil || err.Error() != unknown {
		t.Errorf("Prepare with an unknown ordering: %v", err)
	}
}
