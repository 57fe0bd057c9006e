package bench

import (
	"os"
	"strings"
	"testing"

	"cagmres/internal/core"
	"cagmres/internal/matgen"
	"cagmres/internal/ortho"
)

func TestAblationLatencySpeedupGrowsWithLatency(t *testing.T) {
	rows := ablationLatency(Config{Scale: 0.006, MaxDevices: 3, MaxRestarts: 4})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The speedup must grow monotonically with the latency scale (this
	// is where the entire CA advantage lives).
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup < rows[i-1].Speedup-0.05 {
			t.Fatalf("speedup not monotone in latency: %+v", rows)
		}
	}
	// At near-zero latency the methods roughly tie; at 10x latency CA
	// must win clearly.
	if rows[0].Speedup > 1.6 {
		t.Fatalf("speedup %v at near-zero latency is suspicious", rows[0].Speedup)
	}
	if rows[len(rows)-1].Speedup < 1.3 {
		t.Fatalf("speedup %v at 10x latency too small", rows[len(rows)-1].Speedup)
	}
}

func TestAblationBasisNewtonOutlastsMonomial(t *testing.T) {
	rows := ablationBasis(Config{Scale: 0.004, MaxDevices: 2, MaxRestarts: 10})
	// Largest s where each basis still factorizes with plain CholQR.
	maxOK := map[string]int{}
	for _, r := range rows {
		if !r.Failed && r.S > maxOK[r.Basis] {
			maxOK[r.Basis] = r.S
		}
	}
	if maxOK["newton"] < maxOK["monomial"] {
		t.Fatalf("newton (s<=%d) should last at least as long as monomial (s<=%d)",
			maxOK["newton"], maxOK["monomial"])
	}
	if maxOK["newton"] < 5 {
		t.Fatalf("newton basis should survive s=5, got max %d", maxOK["newton"])
	}
}

func TestAblationPrecisionTrade(t *testing.T) {
	rows := ablationPrecision(Config{Scale: 0.01, MaxDevices: 3})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	chol, mixed, mixed2 := rows[0], rows[1], rows[2]
	if mixed.GramBytesD2H*2 != chol.GramBytesD2H {
		t.Fatalf("mixed Gram volume %d, double %d: want half", mixed.GramBytesD2H, chol.GramBytesD2H)
	}
	if mixed.Orthogonality < 100*chol.Orthogonality {
		t.Fatalf("mixed orthogonality %v should be clearly worse than double %v",
			mixed.Orthogonality, chol.Orthogonality)
	}
	if mixed2.Orthogonality > 10*chol.Orthogonality {
		t.Fatalf("refined orthogonality %v should approach double %v",
			mixed2.Orthogonality, chol.Orthogonality)
	}
	if mixed2.ModeledTime < mixed.ModeledTime {
		t.Fatal("refinement cannot be free")
	}
}

func TestAblationFusedCGSHalvesRounds(t *testing.T) {
	rows := ablationFusedCGS(Config{Scale: 0.01, MaxDevices: 3})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	unfused, fused := rows[0], rows[1]
	// Fused: 2 per column. Unfused: 4 per column minus the two missing
	// projection rounds of the first column.
	if fused.Rounds*2 != unfused.Rounds+2 {
		t.Fatalf("rounds: fused %d, unfused %d", fused.Rounds, unfused.Rounds)
	}
	if fused.CommTime >= unfused.CommTime {
		t.Fatal("fusion should reduce communication time")
	}
	// Both variants stay accurate on a mildly conditioned window.
	if fused.Orthogonality > 1e-9 || unfused.Orthogonality > 1e-9 {
		t.Fatalf("orthogonality degraded: %+v", rows)
	}
}

// TestAblationAdaptiveRescues: the fragile configuration of the retired
// step-size ablation (small cant, CholQR, s = 15) converges through the
// drivers' own context under every precision mode a figure can run in,
// rescued by step halving rather than failing the arm.
func TestAblationAdaptiveRescues(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	mat := matgen.Cant(0.05)
	b := onesRHS(mat.A.Rows)
	for _, prec := range precisionModes {
		p, err := core.NewProblem(cfg.newContext(2, cfg.Profile), mat.A, b, core.Natural, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CAGMRES(p, core.Options{
			M: 60, S: 15, Tol: 1e-4, MaxRestarts: 60, Ortho: "CholQR", Precision: prec,
		})
		if err != nil {
			t.Fatalf("%s: solve failed: %v", prec, err)
		}
		if res.StepHalvings == 0 {
			t.Fatalf("%s: no step halving at s = 15", prec)
		}
		if !res.Converged {
			t.Fatalf("%s: no convergence: relres %v", prec, res.RelRes)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	rows := []fig8Row{{Matrix: "m", S: 1, CommTime: 0.5, ComputeTime: 0.25}}
	path := dir + "/x.csv"
	if err := WriteCSV(path, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.Contains(got, "Matrix,S,CommTime,ComputeTime") {
		t.Fatalf("header missing: %q", got)
	}
	if !strings.Contains(got, "m,1,0.5,0.25") {
		t.Fatalf("row missing: %q", got)
	}
	// Flattening of embedded structs (fig10Row embeds Property).
	f10 := []fig10Row{{Property: ortho.PropertyTable(10, 2)[0], MeasuredComm: 12}}
	if err := WriteCSV(dir+"/y.csv", f10); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(dir + "/y.csv")
	if !strings.Contains(string(data), "Name,") || !strings.Contains(string(data), "MeasuredComm") {
		t.Fatalf("flattened header missing: %q", string(data))
	}
	// Non-slice input rejected.
	if err := WriteCSV(dir+"/z.csv", 42); err == nil {
		t.Fatal("expected error for non-slice")
	}
}
