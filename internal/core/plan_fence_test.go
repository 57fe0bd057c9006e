package core

import (
	"fmt"
	"strings"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/profile"
)

// TestOneDistributionLedgerFence pins whole-solve ledgers captured while
// runCAGMRES still built two distributions per solve (depth s for the
// matrix powers kernel, depth 1 for the residual SpMVs and the
// shift-harvesting GMRES cycle). The single depth-s distribution must
// reproduce them byte for byte: per-phase and per-device tables, modeled
// clock under both schedules, iteration counts and the final residual —
// on the host-hub machine (send/receive byte counts) and on peer-to-peer
// and clustered ones (pairwise traffic matrices), overlap on and off.
func TestOneDistributionLedgerFence(t *testing.T) {
	g3, err := matgen.ByName("G3_circuit", 0.004)
	if err != nil {
		t.Fatal(err)
	}
	diel, err := matgen.ByName("dielFilterV2real", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	nvlink, err := profile.WithTopology(profile.A100PCIe(), gpu.TopoNVLinkRing)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range []struct {
		name     string
		mat      *matgen.Matrix
		prof     gpu.Profile
		devices  int
		ordering Ordering
		opts     Options
	}{
		{"g3 kway newton", g3, gpu.M2090(), 3, KWay, Options{M: 20, S: 5, Ortho: "CholQR"}},
		{"g3 rcm monomial", g3, gpu.M2090(), 2, RCM, Options{M: 12, S: 4, Ortho: "CGS", Basis: "monomial"}},
		{"diel natural newton", diel, gpu.M2090(), 3, Natural, Options{M: 30, S: 15, Ortho: "CholQR"}},
		{"g3 kway nvlink ring", g3, nvlink, 4, KWay, Options{M: 20, S: 5, Ortho: "CholQR"}},
		{"g3 kway h100", g3, profile.H100NVLink(), 3, KWay, Options{M: 20, S: 10, Ortho: "2xCholQR"}},
		{"diel kway mixed", diel, profile.A100PCIe(), 3, KWay, Options{M: 20, S: 5, Ortho: "CholQR", Precision: PrecisionMixed}},
	} {
		for _, overlap := range []bool{false, true} {
			ctx := gpu.NewContext(c.devices, c.prof)
			p, err := NewProblem(ctx, c.mat.A, randomRHS(c.mat.A.Rows, 11), c.ordering, true)
			if err != nil {
				t.Fatal(err)
			}
			opts := c.opts
			opts.Overlap = overlap
			opts.MaxRestarts = 40
			res, err := CAGMRES(p, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			fmt.Fprintf(&sb, "== %s overlap=%v\n", c.name, overlap)
			sb.WriteString(res.Stats.String())
			sb.WriteString(res.Stats.DeviceString())
			fmt.Fprintf(&sb, "converged %v restarts %d iters %d relres %.15e total %.15e\n",
				res.Converged, res.Restarts, res.Iters, res.RelRes, res.Stats.TotalTime())
		}
	}
	fenceCompare(t, "one_distribution_ledger.golden", sb.String())
}
