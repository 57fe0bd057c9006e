package bench

import "testing"

// TestFigPrecisionShapes pins the reproduction targets of the
// mixed-precision study on the deterministic model clock: every
// precision mode converges to the same FP64 tolerance on all four
// paper matrices, the narrowed arms actually ship narrow traffic (the
// conditional ledger columns are populated, and empty on the fp64
// arms), and the compressed pipeline's fabric-tier β-savings exceed
// the 1.3× acceptance bar with the absolute saved volume growing
// monotonically with the federation size.
func TestFigPrecisionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("four-matrix precision sweep in -short mode")
	}
	rows := figPrecision(Config{Scale: 0.003, MaxRestarts: 400})

	byPart := map[string][]precisionRow{}
	for _, r := range rows {
		byPart[r.Part] = append(byPart[r.Part], r)
	}

	// Part one: four matrices × three modes, all converged.
	conv := byPart["convergence"]
	if len(conv) != 4*len(precisionModes) {
		t.Fatalf("convergence rows = %d, want %d", len(conv), 4*len(precisionModes))
	}
	seen := map[string]int{}
	for _, r := range conv {
		seen[r.Matrix]++
		if !r.Converged {
			t.Errorf("%s/%s did not converge: relres %v after %d restarts",
				r.Matrix, r.Precision, r.RelRes, r.Restarts)
		}
		if r.RelRes > 1e-4 {
			t.Errorf("%s/%s: final relres %v above the FP64 tolerance", r.Matrix, r.Precision, r.RelRes)
		}
		switch r.Precision {
		case "fp64":
			// The historical pipeline must not grow precision columns.
			if r.FP32MB != 0 || r.CompMB != 0 || r.WindowsFP32 != 0 || r.FinalLevel != "fp64" {
				t.Errorf("%s/fp64 row carries precision accounting: %+v", r.Matrix, r)
			}
		default:
			if r.WindowsFP32 == 0 {
				t.Errorf("%s/%s generated no narrow windows: %+v", r.Matrix, r.Precision, r)
			}
			if r.FP32MB == 0 && r.CompMB == 0 {
				t.Errorf("%s/%s shipped no narrow traffic: %+v", r.Matrix, r.Precision, r)
			}
			if r.CompressedTransfers == 0 {
				t.Errorf("%s/%s shipped no bf16 halos on a bf16-capable node: %+v", r.Matrix, r.Precision, r)
			}
			if r.FinalLevel == "" {
				t.Errorf("%s/%s reported no final level", r.Matrix, r.Precision)
			}
		}
	}
	for m, n := range seen {
		if n != len(precisionModes) {
			t.Errorf("matrix %s has %d rows, want %d", m, n, len(precisionModes))
		}
	}

	// Part two: the β-savings sweep pairs an fp64 and a mixed arm at
	// every membership. The acceptance bar: ≥1.3× modeled β-cost
	// reduction on the fabric tier with compressed halos, and the
	// absolute saved volume grows with the federation — more nodes,
	// more fabric traffic, more bytes the narrow pipeline avoids.
	beta := byPart["beta"]
	if len(beta) != 2*len(precisionNodeCounts) {
		t.Fatalf("beta rows = %d, want %d", len(beta), 2*len(precisionNodeCounts))
	}
	arm := map[string]map[int]precisionRow{"fp64": {}, "mixed": {}}
	for _, r := range beta {
		arm[r.Precision][r.Nodes] = r
	}
	prevSaved := 0.0
	for _, nodes := range precisionNodeCounts {
		f64, mixed := arm["fp64"][nodes], arm["mixed"][nodes]
		if !f64.Converged || !mixed.Converged {
			t.Fatalf("nodes=%d: beta arms did not converge: %+v %+v", nodes, f64, mixed)
		}
		if f64.InterMB <= 0 || mixed.InterMB <= 0 {
			t.Fatalf("nodes=%d: no fabric-tier traffic: fp64 %.4f MB, mixed %.4f MB",
				nodes, f64.InterMB, mixed.InterMB)
		}
		if mixed.BetaSavings < 1.3 {
			t.Errorf("nodes=%d: β-savings %.3f below the 1.3x acceptance bar", nodes, mixed.BetaSavings)
		}
		if mixed.CompMB == 0 {
			t.Errorf("nodes=%d: mixed arm shipped no compressed traffic", nodes)
		}
		if mixed.SavedInterMB <= prevSaved {
			t.Errorf("nodes=%d: saved fabric volume %.4f MB not above %d nodes' %.4f MB",
				nodes, mixed.SavedInterMB, nodes/2, prevSaved)
		}
		prevSaved = mixed.SavedInterMB
	}
}
