package gpu

import (
	"math"
	"testing"
)

// ringProfile is a 4-device NVLink-ring machine with easy constants for
// hand-computing expected round times.
func ringProfile() Profile {
	return Profile{
		Name:  "test-ring",
		Model: M2090().Model,
		Topo:  Topology{Kind: TopoNVLinkRing, PeerLatency: 2e-6, PeerBandwidth: 100e9},
	}
}

func switchProfile() Profile {
	return Profile{
		Name:  "test-switch",
		Model: M2090().Model,
		Topo:  Topology{Kind: TopoPCIeSwitch, PeerLatency: 5e-6, PeerBandwidth: 20e9},
	}
}

func allToAllProfile() Profile {
	return Profile{
		Name:  "test-a2a",
		Model: M2090().Model,
		Topo:  Topology{Kind: TopoAllToAll, PeerLatency: 3e-6, PeerBandwidth: 200e9},
	}
}

// pair builds an ng x ng traffic matrix with b bytes on s->d.
func pair(ng, s, d, b int) [][]int {
	tr := make([][]int, ng)
	for i := range tr {
		tr[i] = make([]int, ng)
	}
	tr[s][d] = b
	return tr
}

// exchange charges one exchange of traffic the way the profile routes it:
// the routed round where the machine has one, the host bounce of every
// device's send and receive totals where it has not.
func exchange(c *Context, phase string, traffic [][]int, after ...StreamEvent) StreamEvent {
	send, recv := make([]int, len(traffic)), make([]int, len(traffic))
	for s, row := range traffic {
		for d, b := range row {
			if s != d {
				send[s] += b
				recv[d] += b
			}
		}
	}
	return c.HaloExchangeElemOn(phase, send, recv, traffic, Elem64, after...)
}

func peerCost(c *Context, traffic [][]int) float64 {
	before := c.Stats().TotalTime()
	exchange(c, "x", traffic)
	return c.Stats().TotalTime() - before
}

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-15*(1+math.Abs(a)+math.Abs(b)) }

// TestRingRouting checks the ring formula against hand computations:
// hops of the shortest arc times the peer latency, plus the most loaded
// directed link.
func TestRingRouting(t *testing.T) {
	p := ringProfile()
	const B = 1 << 20
	c := NewContext(4, p)

	// Neighbors: 1 hop.
	want := p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if got := peerCost(c, pair(4, 0, 1, B)); !almostEq(got, want) {
		t.Errorf("0->1: got %g want %g", got, want)
	}
	// Across the ring: 2 hops, same link load.
	want = 2*p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if got := peerCost(c, pair(4, 0, 2, B)); !almostEq(got, want) {
		t.Errorf("0->2: got %g want %g", got, want)
	}
	// 3->0 is 1 hop clockwise (wrap).
	want = p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if got := peerCost(c, pair(4, 3, 0, B)); !almostEq(got, want) {
		t.Errorf("3->0: got %g want %g", got, want)
	}
	// All four devices send B to their clockwise neighbor concurrently:
	// every link carries B, one hop.
	tr := make([][]int, 4)
	for s := range tr {
		tr[s] = make([]int, 4)
		tr[s][(s+1)%4] = B
	}
	want = p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if got := peerCost(c, tr); !almostEq(got, want) {
		t.Errorf("cw shift: got %g want %g", got, want)
	}
}

func TestSwitchRouting(t *testing.T) {
	p := switchProfile()
	const B = 1 << 20
	c := NewContext(4, p)
	// Two disjoint pairs cross the switch concurrently: each link sees B
	// in one direction, so the round costs one latency plus B over one
	// link — not 2B.
	tr := pair(4, 0, 1, B)
	tr[2][3] = B
	want := p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if got := peerCost(c, tr); !almostEq(got, want) {
		t.Errorf("disjoint pairs: got %g want %g", got, want)
	}
	// Two senders into one receiver: the receiver's in-link carries 2B.
	tr = pair(4, 0, 1, B)
	tr[2][1] = B
	want = p.Topo.PeerLatency + float64(2*B)/p.Topo.PeerBandwidth
	if got := peerCost(c, tr); !almostEq(got, want) {
		t.Errorf("fan-in: got %g want %g", got, want)
	}
}

func TestAllToAllRouting(t *testing.T) {
	p := allToAllProfile()
	const B = 1 << 20
	c := NewContext(4, p)
	// Every ordered pair ships B concurrently on its own link: the round
	// costs one pair, regardless of how many pairs talk.
	tr := make([][]int, 4)
	for s := range tr {
		tr[s] = make([]int, 4)
		for d := range tr[s] {
			if s != d {
				tr[s][d] = B
			}
		}
	}
	want := p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if got := peerCost(c, tr); !almostEq(got, want) {
		t.Errorf("full exchange: got %g want %g", got, want)
	}
}

// TestHostHubPeerFallback: on the paper's host-hub machine a peer
// exchange bounces through the host — two rounds, reduce then
// broadcast, charged at the host-link constants.
func TestHostHubPeerFallback(t *testing.T) {
	c := NewContext(3, M2090())
	const B = 1 << 20
	before := c.Stats().Phase("x")
	exchange(c, "x", pair(3, 0, 2, B))
	ps := c.Stats().Phase("x")
	if got := ps.Rounds - before.Rounds; got != 2 {
		t.Errorf("host-hub peer exchange charged %d rounds, want 2", got)
	}
	if ps.BytesPeer != 0 {
		t.Errorf("host-hub routed %d bytes peer-to-peer", ps.BytesPeer)
	}
	if ps.BytesD2H != B || ps.BytesH2D != B {
		t.Errorf("host bounce volumes: D2H %d H2D %d, want %d each", ps.BytesD2H, ps.BytesH2D, B)
	}
}

// TestRingRerouteAfterDeath is the regression test for the remapped-view
// routing fix: a Survivors view must route over the surviving devices'
// PHYSICAL ring positions, so logical neighbors separated by a dead
// device pay the real hop count — and Repair restores the short route.
func TestRingRerouteAfterDeath(t *testing.T) {
	p := ringProfile()
	const B = 1 << 20
	c := NewContext(4, p)
	c.InjectFaults(FaultPlan{Seed: 1, Deaths: []DeviceDeath{{Device: 1, At: 0}}})

	// Trip the scheduled death (the charge panics with DeviceLostError).
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("death at t=0 did not fire")
			} else if _, ok := r.(*DeviceLostError); !ok {
				panic(r)
			}
		}()
		c.Gather("x", 1, Elem64)
	}()

	surv, err := c.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	if surv.NumDevices != 3 {
		t.Fatalf("survivors: %d devices, want 3", surv.NumDevices)
	}

	// Logical 0 and 1 of the view are physical 0 and 2: still 2 hops on
	// the 4-ring even though they are adjacent in the view. The buggy
	// host-shaped remap charged this as a 1-hop neighbor transfer.
	want := 2*p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if got := peerCost(surv, pair(3, 0, 1, B)); !almostEq(got, want) {
		t.Errorf("survivor 0->1 (phys 0->2): got %g want %g (2 hops)", got, want)
	}
	// Logical 1->2 is physical 2->3: genuine neighbors, 1 hop.
	want = p.Topo.PeerLatency + float64(B)/p.Topo.PeerBandwidth
	if got := peerCost(surv, pair(3, 1, 2, B)); !almostEq(got, want) {
		t.Errorf("survivor 1->2 (phys 2->3): got %g want %g (1 hop)", got, want)
	}

	// After repair the full machine routes 0->1 as neighbors again.
	c.Repair()
	if got := peerCost(c, pair(4, 0, 1, B)); !almostEq(got, want) {
		t.Errorf("post-repair 0->1: got %g want %g (1 hop)", got, want)
	}
}

// TestSurvivorsKeepProfile: deriving a view must carry the profile, not
// fall back to the host-hub default.
func TestSurvivorsKeepProfile(t *testing.T) {
	c := NewContext(4, ringProfile())
	c.InjectFaults(FaultPlan{Seed: 1, Deaths: []DeviceDeath{{Device: 3, At: 0}}})
	func() {
		defer func() { recover() }()
		c.Gather("x", 1, Elem64)
	}()
	surv, err := c.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	if got := surv.Profile().Name; got != "test-ring" {
		t.Errorf("survivors profile %q, want test-ring", got)
	}
	if !surv.Profile().Topo.PeerToPeer() {
		t.Error("survivors lost the peer-to-peer topology")
	}
}
