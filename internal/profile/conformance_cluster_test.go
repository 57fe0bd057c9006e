package profile

import (
	"testing"

	"cagmres/internal/gpu"
)

// conformCluster asserts the full conformance suite plus the two-tier
// invariants against a clustered profile: the base suite already covers
// finite times, monotone costs, route symmetry (including cross-node
// pairs) and the horizon bound; the cluster checks add the
// fabric-tier ledger split, the single-node degeneracy of host rounds,
// and bit-identical replay of a cross-node device death.
func conformCluster(t *testing.T, p gpu.Profile) {
	t.Helper()
	if !p.Clustered() {
		t.Fatalf("conformCluster on non-clustered profile %q", p.Name)
	}
	conform(t, p)
	t.Run("cluster-tier-split", func(t *testing.T) { checkClusterTierSplit(t, p) })
	t.Run("cluster-degenerate", func(t *testing.T) { checkClusterDegenerate(t, p) })
	t.Run("cluster-fault-replay", func(t *testing.T) { checkClusterFaultReplay(t, p) })
}

// checkClusterTierSplit asserts the ledger routes exchange bytes to the
// right tier: a same-node pair lands on the node-local column, a
// cross-node pair on bytesInterNode, and the fabric tier is strictly
// slower than free.
func checkClusterTierSplit(t *testing.T, p gpu.Profile) {
	t.Helper()
	g := p.Cluster.DevicesPerNode
	ng := 2 * g // two full nodes
	const B = 1 << 18

	c := gpu.NewContext(ng, p)
	exchange(c, "cross", pairTraffic(ng, 0, g, B)) // node 0 -> node 1
	ps := c.Stats().Phase("cross")
	if ps.BytesInterNode != B {
		t.Errorf("cross-node pair: bytesInterNode %d, want %d", ps.BytesInterNode, B)
	}
	if ps.BytesPeer != 0 {
		t.Errorf("cross-node pair leaked %d bytes onto the node-local column", ps.BytesPeer)
	}

	if g > 1 {
		c2 := gpu.NewContext(ng, p)
		exchange(c2, "local", pairTraffic(ng, 0, 1, B)) // both on node 0
		ps2 := c2.Stats().Phase("local")
		if ps2.BytesInterNode != 0 {
			t.Errorf("same-node pair crossed the fabric: %d bytes", ps2.BytesInterNode)
		}
		if ps2.BytesPeer != B {
			t.Errorf("same-node pair: node-local bytes %d, want %d", ps2.BytesPeer, B)
		}
	}

	// A host round charges remote nodes' shares to the fabric too.
	c3 := gpu.NewContext(ng, p)
	c3.Gather("red", B/gpu.ScalarBytes, gpu.Elem64)
	ps3 := c3.Stats().Phase("red")
	if ps3.BytesD2H != ng*B {
		t.Errorf("clustered reduce BytesD2H %d, want %d", ps3.BytesD2H, ng*B)
	}
	if ps3.BytesInterNode != g*B {
		t.Errorf("clustered reduce bytesInterNode %d, want %d (node 1's share)", ps3.BytesInterNode, g*B)
	}
}

// checkClusterDegenerate asserts that when every device fits one node,
// the clustered charging paths reproduce the flat single-node ledger
// (the byte-identity guarantee behind the pre-cluster goldens).
func checkClusterDegenerate(t *testing.T, p gpu.Profile) {
	t.Helper()
	one := p
	one.Cluster.DevicesPerNode = devCount // all devices on node 0
	c := gpu.NewContext(devCount, one)
	bytes := []int{100, 200, 300, 400}
	c.HaloExchangeElemOn("x", bytes, bytes, nil, gpu.Elem64)
	ps := c.Stats().Phase("x")
	if ps.BytesInterNode != 0 {
		t.Errorf("one-node cluster crossed the fabric: %d bytes", ps.BytesInterNode)
	}
	flatP := p
	flatP.Cluster = gpu.Cluster{}
	flat := gpu.NewContext(devCount, flatP)
	flat.HaloExchangeElemOn("x", bytes, bytes, nil, gpu.Elem64)
	fs := flat.Stats().Phase("x")
	if ps.CommTime != fs.CommTime || ps.BytesD2H != fs.BytesD2H || ps.BytesH2D != fs.BytesH2D {
		t.Errorf("one-node cluster host rounds differ from flat machine: %+v vs %+v", ps, fs)
	}
}

// checkClusterFaultReplay kills the last device — on the last node — at
// virtual time zero-plus, re-derives a Survivors view, keeps charging,
// and asserts two seeded runs render bit-identical ledgers: cross-node
// death recovery must be exactly replayable.
func checkClusterFaultReplay(t *testing.T, p gpu.Profile) {
	t.Helper()
	run := func() (string, gpu.FaultCounts) {
		c := gpu.NewContext(devCount, p)
		c.InjectFaults(gpu.FaultPlan{
			Seed:              11,
			TransferFaultProb: 0.3,
			MaxTransferFaults: 4,
			Deaths:            []gpu.DeviceDeath{{Device: devCount - 1, At: 1e-9}},
		})
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*gpu.DeviceLostError); !ok {
						panic(r)
					}
				}
			}()
			workload(c)
		}()
		surv, err := c.Survivors()
		if err != nil {
			t.Fatal(err)
		}
		workload(surv)
		return c.Stats().String() + "\n" + c.Stats().DeviceString(), c.FaultCounts()
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 {
		t.Errorf("cross-node fault replay diverged:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
	}
	if f1 != f2 {
		t.Errorf("fault counts diverged: %+v vs %+v", f1, f2)
	}
	if f1.DeviceDeaths != 1 {
		t.Errorf("scheduled cross-node death did not fire exactly once: %+v", f1)
	}
}
