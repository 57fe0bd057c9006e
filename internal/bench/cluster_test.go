package bench

import "testing"

// TestFigClusterShapes pins the reproduction targets of the multi-node
// study on the deterministic model clock: the study scales to the full
// 64-node federation, CA-GMRES wins in every cell, and — the cluster
// tier's headline shape — the absolute time communication avoidance
// saves grows monotonically with the inter/intra-node latency ratio.
func TestFigClusterShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node sweep in -short mode")
	}
	rows := figCluster(tiny())

	byMode := map[string][]clusterRow{}
	for _, r := range rows {
		byMode[r.Mode] = append(byMode[r.Mode], r)
	}

	for _, r := range rows {
		if r.CAAdvantage <= 1 {
			t.Errorf("%s %s nodes=%d: CA advantage %.4f <= 1", r.Mode, r.Fabric, r.Nodes, r.CAAdvantage)
		}
		if r.GMRESSec <= 0 || r.CASec <= 0 {
			t.Errorf("%s %s nodes=%d: non-positive modeled times %+v", r.Mode, r.Fabric, r.Nodes, r)
		}
		// The fabric tier only carries traffic once there is more than one
		// node; a single node never pays it.
		if r.Nodes == 1 && r.InterMB != 0 {
			t.Errorf("%s %s nodes=1: inter-node traffic %.3f MB != 0", r.Mode, r.Fabric, r.InterMB)
		}
		if r.Nodes > 1 && r.InterMB <= 0 {
			t.Errorf("%s %s nodes=%d: no inter-node traffic on the fabric tier", r.Mode, r.Fabric, r.Nodes)
		}
	}

	// Ratio sweep: at every federation size, CASavedSec strictly grows
	// with the latency ratio — the slower the fabric, the more each
	// avoided exchange is worth.
	ratio := byMode["ratio"]
	if len(ratio) != 3*len(clusterRatios) {
		t.Fatalf("ratio rows = %d, want %d", len(ratio), 3*len(clusterRatios))
	}
	byNodes := map[int][]clusterRow{}
	for _, r := range ratio {
		byNodes[r.Nodes] = append(byNodes[r.Nodes], r)
	}
	for nodes, rs := range byNodes {
		for i := 1; i < len(rs); i++ {
			if rs[i].LatencyRatio <= rs[i-1].LatencyRatio {
				t.Fatalf("ratio rows for nodes=%d out of sweep order", nodes)
			}
			if rs[i].CASavedSec <= rs[i-1].CASavedSec {
				t.Errorf("nodes=%d: CA saving not monotone in latency ratio: %.6gs at %gx then %.6gs at %gx",
					nodes, rs[i-1].CASavedSec, rs[i-1].LatencyRatio, rs[i].CASavedSec, rs[i].LatencyRatio)
			}
		}
	}

	// Strong and weak scaling both reach the 64-node federation.
	for _, mode := range []string{"strong", "weak"} {
		max := 0
		for _, r := range byMode[mode] {
			if r.Nodes > max {
				max = r.Nodes
			}
		}
		if max != 64 {
			t.Errorf("%s scaling peaks at %d nodes, want 64", mode, max)
		}
	}

	// The strong sweep runs the same fixed problem on two fabrics: the
	// slow fabric can never beat the fast one, and the saving is larger
	// on the slow fabric wherever the federation actually spans nodes.
	strong := map[string]map[int]clusterRow{}
	for _, r := range byMode["strong"] {
		if strong[r.Fabric] == nil {
			strong[r.Fabric] = map[int]clusterRow{}
		}
		strong[r.Fabric][r.Nodes] = r
	}
	for _, nodes := range clusterNodeCounts {
		hdr, eth := strong["ib-hdr"][nodes], strong["ethernet-25g"][nodes]
		if nodes == 1 {
			if hdr.CASec != eth.CASec || hdr.GMRESSec != eth.GMRESSec {
				t.Errorf("nodes=1: fabric leaked into a single-node run: %+v vs %+v", hdr, eth)
			}
			continue
		}
		if eth.CASec <= hdr.CASec {
			t.Errorf("nodes=%d: ethernet-25g CA %.6gs not slower than ib-hdr %.6gs", nodes, eth.CASec, hdr.CASec)
		}
		if eth.CASavedSec <= hdr.CASavedSec {
			t.Errorf("nodes=%d: CA saving on the slow fabric (%.6gs) not above the fast one (%.6gs)",
				nodes, eth.CASavedSec, hdr.CASavedSec)
		}
	}
}
