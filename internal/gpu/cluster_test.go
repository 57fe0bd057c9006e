package gpu

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// clusterProfile is a 2-node × 2-device machine: PCIe-switch peer links
// inside each node, an easy-arithmetic fabric between them.
func clusterProfile() Profile {
	return Profile{
		Name:  "test-cluster",
		Model: M2090().Model,
		Topo:  Topology{Kind: TopoPCIeSwitch, PeerLatency: 5e-6, PeerBandwidth: 20e9},
		Cluster: Cluster{
			DevicesPerNode: 2,
			Fabric:         Fabric{Kind: FabricIBHDR, Latency: 10e-6, Bandwidth: 10e9},
		},
	}
}

func TestNodeOfAndNumNodes(t *testing.T) {
	c := NewContext(4, clusterProfile())
	if want := []int{0, 0, 1, 1}; !slices.Equal(c.node, want) {
		t.Errorf("node of each device = %v, want %v", c.node, want)
	}
	// A single-node context puts every device on node 0.
	s := NewContext(3, M2090())
	if want := []int{0, 0, 0}; !slices.Equal(s.node, want) {
		t.Errorf("single-node: node of each device = %v, want %v", s.node, want)
	}
}

// TestClusterPeerTiering: a same-node pair lands on BytesPeer at switch
// cost; a cross-node pair lands on BytesInterNode and pays the fabric.
func TestClusterPeerTiering(t *testing.T) {
	p := clusterProfile()
	const B = 1 << 20
	c := NewContext(4, p)

	// Same node (0 -> 1): pure node-local switch round.
	before := c.Stats().TotalTime()
	exchange(c, "local", pair(4, 0, 1, B))
	got := c.Stats().TotalTime() - before
	want := p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if !almostEq(got, want) {
		t.Errorf("same-node pair: got %g want %g", got, want)
	}
	ps := c.Stats().Phase("local")
	if ps.BytesPeer != B || ps.BytesInterNode != 0 {
		t.Errorf("same-node ledger: peer %d inter %d, want %d/0", ps.BytesPeer, ps.BytesInterNode, B)
	}

	// Cross node (0 -> 2): fabric leg only, no intra traffic.
	before = c.Stats().TotalTime()
	exchange(c, "cross", pair(4, 0, 2, B))
	got = c.Stats().TotalTime() - before
	fab := p.Cluster.Fabric
	want = fab.Latency + float64(B)/fab.Bandwidth
	if !almostEq(got, want) {
		t.Errorf("cross-node pair: got %g want %g", got, want)
	}
	ps = c.Stats().Phase("cross")
	if ps.BytesPeer != 0 || ps.BytesInterNode != B {
		t.Errorf("cross-node ledger: peer %d inter %d, want 0/%d", ps.BytesPeer, ps.BytesInterNode, B)
	}

	// Mixed round: the intra leg (slowest node) and the fabric leg are
	// sequential.
	tr := pair(4, 0, 1, B)
	tr[2][0] = B
	before = c.Stats().TotalTime()
	exchange(c, "mixed", tr)
	got = c.Stats().TotalTime() - before
	want = (p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth) +
		(fab.Latency + float64(B)/fab.Bandwidth)
	if !almostEq(got, want) {
		t.Errorf("mixed round: got %g want %g", got, want)
	}
	ps = c.Stats().Phase("mixed")
	if ps.BytesPeer != B || ps.BytesInterNode != B {
		t.Errorf("mixed ledger: peer %d inter %d, want %d/%d", ps.BytesPeer, ps.BytesInterNode, B, B)
	}
}

// TestClusterHostRound: a reduce round charges every byte on the host
// column and additionally charges remote nodes' shares to the fabric.
func TestClusterHostRound(t *testing.T) {
	p := clusterProfile()
	c := NewContext(4, p)
	bytes := []int{100, 200, 300, 400}
	before := c.Stats().TotalTime()
	c.commRound("red", dirD2H, bytes, Elem64, nil)
	got := c.Stats().TotalTime() - before
	// Node volumes: node0=300, node1=700. Local leg pays the most loaded
	// node link; the remote node's aggregate then crosses the fabric.
	fab := p.Cluster.Fabric
	want := (p.Model.Latency + 700/p.Model.Bandwidth) + (fab.Latency + 700/fab.Bandwidth)
	if !almostEq(got, want) {
		t.Errorf("clustered reduce: got %g want %g", got, want)
	}
	ps := c.Stats().Phase("red")
	if ps.BytesD2H != 1000 {
		t.Errorf("BytesD2H = %d, want 1000", ps.BytesD2H)
	}
	if ps.BytesInterNode != 700 {
		t.Errorf("BytesInterNode = %d, want 700 (node 1's share)", ps.BytesInterNode)
	}
	// Per-device: only the remote node's devices carry fabric bytes.
	for d, wantInter := range []int{0, 0, 300, 400} {
		dp := c.Stats().DevicePhase(d, "red")
		if dp.BytesInterNode != wantInter {
			t.Errorf("device %d BytesInterNode = %d, want %d", d, dp.BytesInterNode, wantInter)
		}
	}
}

// TestClusterSingleNodeDegenerate: a cluster whose devices all fit one
// node charges host rounds exactly like the flat model.
func TestClusterSingleNodeDegenerate(t *testing.T) {
	p := clusterProfile()
	p.Cluster.DevicesPerNode = 4 // all four devices on node 0
	c := NewContext(4, p)
	flat := NewContext(4, M2090())
	bytes := []int{100, 200, 300, 400}
	c.commRound("x", dirD2H, bytes, Elem64, nil)
	flat.commRound("x", dirD2H, bytes, Elem64, nil)
	a, b := c.Stats().Phase("x"), flat.Stats().Phase("x")
	if a.CommTime != b.CommTime || a.BytesD2H != b.BytesD2H {
		t.Errorf("one-node cluster reduce differs from flat: %v vs %v", a, b)
	}
	if a.BytesInterNode != 0 {
		t.Errorf("one-node cluster charged %d fabric bytes", a.BytesInterNode)
	}
}

// surviving kills one device of c and returns the Survivors view.
func surviving(t *testing.T, c *Context, victim int) *Context {
	t.Helper()
	c.InjectFaults(FaultPlan{Deaths: []DeviceDeath{{Device: victim, At: 0}}})
	func() {
		defer func() { _ = recover() }() // the death fires on the first charge
		c.Launch("kill", every(Work{Flops: 1}))
	}()
	view, err := c.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// TestOneNodeClusterIsTheFlatMachine is the identity the single transfer
// path rests on: a cluster whose one node holds every device charges
// what the unclustered profile charges, bit for bit — host rounds on
// every topology, routed exchanges on every peer-to-peer one (the
// unclustered host-hub machine alone replays the host bounce instead of
// routing the matrix) — on the full view and on a Survivors view.
func TestOneNodeClusterIsTheFlatMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, kind := range []TopoKind{TopoHostHub, TopoPCIeSwitch, TopoNVLinkRing, TopoAllToAll} {
		for trial := 0; trial < 50; trial++ {
			n := 2 + rng.Intn(5)
			flat := pathsProfile(kind, 0)
			flat.Topo.PeerLatency = float64(1+rng.Intn(9)) * 1e-6
			flat.Topo.PeerBandwidth = float64(1+rng.Intn(90)) * 1e9
			one := flat
			one.Cluster = Cluster{DevicesPerNode: n, Fabric: Fabric{Kind: FabricIBHDR, Latency: 7e-6, Bandwidth: 12e9}}
			a, b := NewContext(n, flat), NewContext(n, one)
			if trial%2 == 1 { // every other trial charges through a Survivors view
				victim := rng.Intn(n)
				a, b = surviving(t, a, victim), surviving(t, b, victim)
			}
			m := a.NumDevices
			bytes := make([]int, m)
			traffic := make([][]int, m)
			for d := range traffic {
				bytes[d] = rng.Intn(1 << 16)
				traffic[d] = make([]int, m)
				for e := range traffic[d] {
					if rng.Intn(3) > 0 {
						traffic[d][e] = rng.Intn(1 << 16)
					}
				}
			}
			elem := Elem(rng.Intn(3))
			for _, c := range []*Context{a, b} {
				c.commRound("host", dirD2H, bytes, elem, nil)
				c.commRound("host", dirH2D, bytes, elem, nil)
				if kind != TopoHostHub {
					exchange(c, "exchange", traffic)
					c.HaloExchangeElemOn("exchange", bytes, bytes, traffic, elem)
				}
			}
			for _, phase := range []string{"host", "exchange"} {
				pa, pb := a.Stats().Phase(phase), b.Stats().Phase(phase)
				if pa != pb || math.Float64bits(pa.CommTime) != math.Float64bits(pb.CommTime) {
					t.Fatalf("%s trial %d phase %s: flat %+v, one-node cluster %+v", kind, trial, phase, pa, pb)
				}
				for d := 0; d < n; d++ {
					if da, db := a.Stats().DevicePhase(d, phase), b.Stats().DevicePhase(d, phase); da != db {
						t.Fatalf("%s trial %d phase %s device %d: flat %+v, one-node cluster %+v", kind, trial, phase, d, da, db)
					}
				}
			}
		}
	}
}

// TestClusterRouteSymmetry: transposing the traffic matrix must not
// change the round cost (out/in swaps are max-invariant on both tiers).
func TestClusterRouteSymmetry(t *testing.T) {
	c := NewContext(4, clusterProfile())
	tr := pair(4, 0, 1, 1000)
	tr[0][3] = 5000
	tr[2][1] = 700
	tt := make([][]int, 4)
	for i := range tt {
		tt[i] = make([]int, 4)
		for j := range tt[i] {
			tt[i][j] = tr[j][i]
		}
	}
	fwd := c.routeExchange(tr)
	rev := c.routeExchange(tt)
	if !almostEq(fwd, rev) {
		t.Errorf("cluster route asymmetric: fwd %g rev %g", fwd, rev)
	}
}

// TestClusterSurvivorsKeepNodes: after a device death, the Survivors
// view routes on physical node membership — physical device 2 stays on
// node 1 even though it is logical device 1 of the view.
func TestClusterSurvivorsKeepNodes(t *testing.T) {
	p := clusterProfile()
	const B = 1 << 20
	c := NewContext(4, p)
	c.InjectFaults(FaultPlan{Seed: 1, Deaths: []DeviceDeath{{Device: 1, At: 0}}})
	func() {
		defer func() { recover() }()
		c.Gather("x", 1, Elem64)
	}()
	surv, err := c.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	if surv.NumDevices != 3 {
		t.Fatalf("survivors: %d devices, want 3", surv.NumDevices)
	}
	// View logical 0,1,2 = physical 0,2,3 = nodes 0,1,1.
	if want := []int{0, 1, 1}; !slices.Equal(surv.node, want) {
		t.Errorf("survivor node of each device = %v, want %v", surv.node, want)
	}
	// Logical 0 -> 1 is physical 0 -> 2: cross-node, must pay the fabric.
	before := surv.Stats().TotalTime()
	exchange(surv, "surv", pair(3, 0, 1, B))
	got := surv.Stats().TotalTime() - before
	fab := p.Cluster.Fabric
	want := fab.Latency + float64(B)/fab.Bandwidth
	if !almostEq(got, want) {
		t.Errorf("survivor cross-node pair: got %g want %g", got, want)
	}
	if ps := surv.Stats().Phase("surv"); ps.BytesInterNode != B {
		t.Errorf("survivor fabric bytes = %d, want %d", ps.BytesInterNode, B)
	}
}

// TestInterNodeColumnGating: the bytesInter report column appears only
// on ledgers that actually crossed the fabric.
func TestInterNodeColumnGating(t *testing.T) {
	flat := NewContext(2, M2090())
	flat.Gather("x", 1, Elem64)
	if strings.Contains(flat.Stats().String(), "bytesInter") {
		t.Error("single-node ledger rendered a bytesInter column")
	}
	cl := NewContext(4, clusterProfile())
	cl.Gather("x", 1, Elem64)
	if !strings.Contains(cl.Stats().String(), "bytesInter") {
		t.Error("clustered ledger missing the bytesInter column")
	}
	if !strings.Contains(cl.Stats().DeviceString(), "bytesInter") {
		t.Error("clustered device breakdown missing the bytesInter column")
	}
}

// TestClusterMonotoneInBytes: doubling any pair's volume must not reduce
// the round cost on either tier.
func TestClusterMonotoneInBytes(t *testing.T) {
	c := NewContext(4, clusterProfile())
	base := pair(4, 0, 1, 1000)
	base[0][2] = 2000
	base[3][1] = 500
	t0 := c.routeExchange(base)
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s == d {
				continue
			}
			tr := pair(4, 0, 1, 1000)
			tr[0][2] = 2000
			tr[3][1] = 500
			tr[s][d] += 4000
			t1 := c.routeExchange(tr)
			if t1 < t0-1e-18 {
				t.Errorf("adding bytes on %d->%d reduced cost: %g -> %g", s, d, t0, t1)
			}
		}
	}
}

// TestClusterLatencyDominates: tiny messages from one-device nodes — the
// fabric latency sets the floor of every host round.
func TestClusterLatencyDominates(t *testing.T) {
	p := M2090()
	p.Cluster = Cluster{DevicesPerNode: 1, Fabric: Fabric{Latency: 25e-6, Bandwidth: 3e9}}
	ctx := NewContext(3, p)
	ctx.Gather("p", 1, Elem64)
	if got := ctx.Stats().Phase("p").CommTime; got < 25e-6 {
		t.Fatalf("comm time %v below fabric latency", got)
	}
}

// TestClusterAmplifiesCAAdvantage is the motivating property of the
// paper's conclusion: the latency penalty of scattering the devices over
// nodes hits the many-round strategies (MGS-like patterns) far harder
// than the 2-round strategies. Simulate the round patterns directly.
func TestClusterAmplifiesCAAdvantage(t *testing.T) {
	single := M2090()
	multi := single
	multi.Cluster = Cluster{DevicesPerNode: 1, Fabric: Fabric{Latency: 100e-6, Bandwidth: 3e9}}

	cost := func(p Profile, rounds int) float64 {
		ctx := NewContext(3, p)
		for i := 0; i < rounds; i++ {
			ctx.Gather("p", 1, Elem64)
		}
		return ctx.Stats().Phase("p").CommTime
	}
	// 110 rounds (MGS at s=9) vs 2 rounds (CholQR): the absolute time
	// the communication-avoiding strategy saves per window must grow
	// with the per-round cost (here ~7.7x: a 100us fabric leg on top of
	// the 15us host link).
	gapSingle := cost(single, 110) - cost(single, 2)
	gapMulti := cost(multi, 110) - cost(multi, 2)
	if gapMulti < 5*gapSingle {
		t.Fatalf("clustered gap %v not clearly above single-node %v", gapMulti, gapSingle)
	}
}

func TestFabricValidAndString(t *testing.T) {
	f := Fabric{Kind: FabricIBHDR, Latency: 5e-6, Bandwidth: 25e9}
	if !f.Valid() {
		t.Error("valid fabric rejected")
	}
	for _, bad := range []Fabric{
		{Latency: -1, Bandwidth: 1e9},
		{Latency: 0, Bandwidth: 0},
		{Latency: 0, Bandwidth: -5},
	} {
		if bad.Valid() {
			t.Errorf("invalid fabric accepted: %+v", bad)
		}
	}
	if s := f.String(); !strings.Contains(s, "ib-hdr") {
		t.Errorf("Fabric.String() = %q, want kind in it", s)
	}
}
