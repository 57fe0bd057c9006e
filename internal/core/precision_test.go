package core

import (
	"strings"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/matgen"
)

func TestNormalizePrecision(t *testing.T) {
	for in, want := range map[string]string{
		"": PrecisionFP64, "fp64": PrecisionFP64,
		"mixed": PrecisionMixed, "adaptive": PrecisionAdaptive,
	} {
		got, err := NormalizePrecision(in)
		if err != nil || got != want {
			t.Fatalf("NormalizePrecision(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"fp32", "bf16", "MIXED", "half"} {
		if _, err := NormalizePrecision(bad); err == nil {
			t.Fatalf("NormalizePrecision(%q) accepted", bad)
		}
	}
}

func TestGMRESRejectsNarrowPrecision(t *testing.T) {
	a := laplace2D(10, 10, 0.3)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, err := NewProblem(ctx, a, randomRHS(100, 3), Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []string{"mixed", "adaptive"} {
		if _, err := GMRES(p, Options{M: 20, Precision: prec}); err == nil {
			t.Fatalf("GMRES accepted precision %q", prec)
		}
	}
	if _, err := CAGMRES(p, Options{M: 20, S: 5, Precision: "half"}); err == nil {
		t.Fatal("CAGMRES accepted precision \"half\"")
	}
}

// bf16Profile is an NVLink-class single-node profile that claims
// bfloat16-capable transfer engines, so the policy's narrowest level is
// exercised in-core without the profile registry.
func bf16Profile() gpu.Profile {
	return gpu.Profile{
		Name:         "bf16-test",
		Model:        gpu.M2090().Model,
		Topo:         gpu.Topology{Kind: gpu.TopoPCIeSwitch, PeerLatency: 5e-6, PeerBandwidth: 2e10},
		BF16Transfer: true,
	}
}

// TestPrecisionModesConvergeOnPaperMatrices is the tentpole acceptance
// check: mixed and adaptive reach the FP64 tolerance on all four paper
// workloads, report what they did, and tag the precision ledger.
func TestPrecisionModesConvergeOnPaperMatrices(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
		m, s  int
	}{
		{"cant", 0.1, 60, 10},
		{"G3_circuit", 0.004, 30, 10},
		{"dielFilterV2real", 0.006, 60, 15},
		{"nlpkkt120", 0.0015, 60, 10},
	}
	for _, tc := range cases {
		for _, prec := range []string{PrecisionMixed, PrecisionAdaptive} {
			t.Run(tc.name+"/"+prec, func(t *testing.T) {
				mat, err := matgen.ByName(tc.name, tc.scale)
				if err != nil {
					t.Fatal(err)
				}
				b := make([]float64, mat.A.Rows)
				for i := range b {
					b[i] = 1
				}
				ctx := gpu.NewContext(3, bf16Profile())
				p, err := NewProblem(ctx, mat.A, b, KWay, true)
				if err != nil {
					t.Fatal(err)
				}
				res, err := CAGMRES(p, Options{
					M: tc.m, S: tc.s, Tol: 1e-4, MaxRestarts: 400,
					Ortho: "CholQR", Precision: prec,
				})
				if err != nil {
					t.Fatalf("solve: %v", err)
				}
				if !res.Converged {
					t.Fatalf("%s did not converge: relres %v after %d restarts", prec, res.RelRes, res.Restarts)
				}
				if rn := ResidualNorm(mat.A, b, res.X); rn > 1e-2 {
					t.Fatalf("true residual %v too large", rn)
				}
				rep := res.Precision
				if rep == nil || rep.Mode != prec {
					t.Fatalf("missing/incorrect precision report: %+v", rep)
				}
				if rep.WindowsFP32 == 0 {
					t.Fatalf("no fp32 windows recorded: %+v", rep)
				}
				if rep.FinalLevel == "" {
					t.Fatalf("no final level: %+v", rep)
				}
				if rep.CompressedTransfers == 0 {
					t.Fatalf("bf16-capable profile shipped no compressed halos: %+v", rep)
				}
				mpk := res.Stats.Phase(PhaseMPK)
				if mpk.BytesFP32 == 0 && mpk.BytesCompressed == 0 {
					t.Fatalf("precision ledger empty in mpk phase: %+v", mpk)
				}
				t.Logf("%s/%s: restarts=%d iters=%d relres=%.2e report=%+v",
					tc.name, prec, res.Restarts, res.Iters, res.RelRes, *rep)
			})
		}
	}
}

// TestAdaptiveConvergenceIsFP64True is the adaptive safety-rail property
// (ISSUE satellite): whenever adaptive reports convergence — on any of
// the four paper matrices, with and without a seeded fault plan — the
// independently FP64-recomputed true residual of the solved system meets
// the tolerance. Problems are prepared without balancing so the original
// system's residual is exactly the quantity the solver's convergence
// test used (row/column permutations preserve norms).
func TestAdaptiveConvergenceIsFP64True(t *testing.T) {
	const tol = 1e-4
	matrices := []struct {
		name  string
		scale float64
	}{
		{"cant", 0.08},
		{"G3_circuit", 0.003},
		{"dielFilterV2real", 0.005},
		{"nlpkkt120", 0.001},
	}
	for _, mc := range matrices {
		for _, faults := range []bool{false, true} {
			name := mc.name
			if faults {
				name += "/faulted"
			}
			t.Run(name, func(t *testing.T) {
				mat, err := matgen.ByName(mc.name, mc.scale)
				if err != nil {
					t.Fatal(err)
				}
				b := make([]float64, mat.A.Rows)
				for i := range b {
					b[i] = 1
				}
				ctx := gpu.NewContext(3, bf16Profile())
				if faults {
					ctx.InjectFaults(gpu.FaultPlan{
						Seed:              1234,
						Deaths:            []gpu.DeviceDeath{{Device: 1, At: 1e-3}},
						TransferFaultProb: 0.01,
					})
				}
				p, err := NewProblem(ctx, mat.A, b, KWay, false)
				if err != nil {
					t.Fatal(err)
				}
				res, err := CAGMRES(p, Options{
					M: 30, S: 10, Tol: tol, MaxRestarts: 300,
					Ortho: "CholQR", Precision: PrecisionAdaptive,
				})
				if err != nil {
					// A fault that exhausts recovery is a legitimate failure,
					// not a false convergence claim.
					t.Logf("solve error (acceptable under faults): %v", err)
					return
				}
				if !res.Converged {
					t.Logf("did not converge (acceptable): relres %v", res.RelRes)
					return
				}
				// FP64 recomputation from scratch on the host: the property
				// under test must not trust any solver state.
				bn := la.Nrm2(b)
				if rn := ResidualNorm(mat.A, b, res.X); rn/bn > tol*1.01 {
					t.Fatalf("adaptive reported convergence at true relres %v > %v", rn/bn, tol)
				}
			})
		}
	}
}

// TestFP64ModeLedgerHasNoPrecisionColumns pins the conditional-column
// promise: a pure-FP64 solve renders the exact historical Stats table,
// while a mixed solve gains the precision columns.
func TestFP64ModeLedgerHasNoPrecisionColumns(t *testing.T) {
	a := laplace2D(16, 16, 0.3)
	b := randomRHS(256, 5)
	solve := func(prec string) (*Result, string) {
		ctx := gpu.NewContext(3, gpu.M2090())
		p, err := NewProblem(ctx, a, b, Natural, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CAGMRES(p, Options{M: 20, S: 5, Tol: 1e-8, MaxRestarts: 50, Ortho: "CholQR", Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Stats.String()
	}
	res64, table64 := solve("fp64")
	if strings.Contains(table64, "bytesFP32") || strings.Contains(table64, "bytesComp") {
		t.Fatalf("fp64 ledger grew precision columns:\n%s", table64)
	}
	if res64.Precision != nil {
		t.Fatalf("fp64 solve carries a precision report: %+v", res64.Precision)
	}
	resMixed, tableMixed := solve("mixed")
	if !strings.Contains(tableMixed, "bytesFP32") {
		t.Fatalf("mixed ledger missing bytesFP32 column:\n%s", tableMixed)
	}
	if resMixed.Precision == nil || resMixed.Precision.WindowsFP32 == 0 {
		t.Fatalf("mixed solve reported nothing: %+v", resMixed.Precision)
	}
	// Default and explicit fp64 are the same mode.
	resDefault, tableDefault := solve("")
	if tableDefault != table64 {
		t.Fatal("default and fp64 ledgers differ")
	}
	for i := range res64.X {
		if res64.X[i] != resDefault.X[i] {
			t.Fatalf("default and fp64 solutions differ at %d", i)
		}
	}
}
