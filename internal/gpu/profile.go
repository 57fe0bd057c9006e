package gpu

// This file makes the machine description a first-class, swappable
// value. Historically the simulator was hard-wired to the paper's 2014
// testbed (M2090 GPUs sharing one PCIe 2.0 hub through the host); a
// Profile bundles the per-device compute constants (CostModel) with an
// explicit interconnect Topology, so the same solver program can be
// costed on a modern PCIe-switch or NVLink-ring box — and so
// device-to-device halo exchange can route peer-to-peer instead of
// bouncing through the host, the MGSim/MGMark observation that topology,
// not device count, bounds multi-GPU scaling.
//
// Profiles reorder *time*, never arithmetic: every kernel still executes
// exactly, so iterates and convergence histories are bit-identical
// across profiles. Only the ledger charges change.

// TopoKind names an interconnect topology.
type TopoKind string

// The shipped topology kinds.
const (
	// TopoHostHub is the paper's machine: every device hangs off one
	// shared PCIe segment behind the host, and device-to-device traffic
	// bounces through host memory (a D2H round then an H2D round). The
	// default — and the only kind the pre-profile simulator could model.
	TopoHostHub TopoKind = "host-hub"
	// TopoPCIeSwitch gives each device a private full-duplex link to a
	// non-blocking PCIe switch: peer traffic crosses the switch without
	// touching the host, and a round costs one peer latency plus the most
	// loaded device link.
	TopoPCIeSwitch TopoKind = "pcie-switch"
	// TopoNVLinkRing joins the devices in a physical ring of NVLink-class
	// links. Peer traffic takes the shortest arc (ties go clockwise),
	// loading every link it crosses; a round costs the hop count times
	// the peer latency plus the most loaded directed link.
	TopoNVLinkRing TopoKind = "nvlink-ring"
	// TopoAllToAll gives every device pair a dedicated link (NVSwitch-like
	// full fabric): one peer latency plus the largest single pair volume.
	TopoAllToAll TopoKind = "all-to-all"
)

// Topology describes the device-to-device interconnect of a profile: the
// wiring kind plus the alpha/beta constants of one peer link.
type Topology struct {
	Kind TopoKind
	// PeerLatency is the per-round (per-hop, on a ring) latency of a peer
	// transfer, the alpha term.
	PeerLatency float64
	// PeerBandwidth is the bandwidth of one peer link in bytes/second,
	// the beta term.
	PeerBandwidth float64
}

// PeerToPeer reports whether the topology routes device-to-device
// traffic directly, without bouncing through the host. The zero value
// (and TopoHostHub) keep the paper's host-mediated routing.
func (t Topology) PeerToPeer() bool {
	switch t.Kind {
	case TopoPCIeSwitch, TopoNVLinkRing, TopoAllToAll:
		return true
	}
	return false
}

// Valid reports whether the kind is one of the shipped topologies.
func (t Topology) Valid() bool {
	switch t.Kind {
	case "", TopoHostHub, TopoPCIeSwitch, TopoNVLinkRing, TopoAllToAll:
		return true
	}
	return false
}

// Profile is a complete, swappable machine description: a name for
// reports and the HTTP API, the compute/host-link cost model, the peer
// interconnect topology of one node, and (optionally) the cluster tier
// grouping the devices into nodes joined by an inter-node fabric.
type Profile struct {
	Name  string
	Model CostModel
	Topo  Topology
	// Cluster, when enabled, groups the devices into nodes joined by a
	// fabric; the zero value is one node holding every device.
	Cluster Cluster
	// BF16Transfer declares that the machine's interconnect can ship
	// bfloat16-compressed payloads (peer copy engines / RDMA fabrics
	// with 2-byte element support). The precision policy in
	// internal/core only narrows transfers to ElemBF16 when the profile
	// claims this; internal/profile's validator rejects the claim on
	// host-hub topologies and non-RDMA cluster fabrics. False (the zero
	// value) caps transfer compression at FP32.
	BF16Transfer bool
}

// Clustered reports whether the profile describes a multi-node machine.
func (p Profile) Clustered() bool { return p.Cluster.Enabled() }

// Profile returns the context's machine description.
func (c *Context) Profile() Profile { return c.prof }

// SetProfile re-targets the context at a different machine description:
// cost model and topology swap together. Call it between solves (the
// scheduler does, per lease); charges already on the ledger keep the
// costs they were charged at. Survivors views capture the profile at
// derivation time, so set the profile on the root before deriving views.
func (c *Context) SetProfile(p Profile) {
	c.prof = p
	c.mapNodes() // a per-request profile can arm or disarm the cluster tier
}

// --- Exchange entry points ------------------------------------------------

// hostBounce is the one routing decision made outside routeExchange: a
// single-node host-hub machine — the paper's — has no device-to-device
// path at all, so its exchanges replay the paper's protocol on the
// ledger as two host rounds (a reduce, then a broadcast that depends on
// it) instead of one routed round. A clustered host-hub profile routes
// the traffic matrix like every other: its node-local pairs bounce
// through their node's host inside the routed round.
func (c *Context) hostBounce() bool {
	return !c.prof.Topo.PeerToPeer() && !c.prof.Cluster.Enabled()
}

// HaloExchangeElemOn charges one halo exchange the way the profile
// routes it, as a stream operation. Host-mediated topologies replay the
// paper's protocol byte for byte: a device-to-host reduce of sendBytes
// (each device's compressed boundary, every value once) followed by a
// host-to-device broadcast of recvBytes (each device's halo), the second
// leg depending on the first. Every other machine ships traffic[s][d]
// directly (a value consumed by two peers is sent twice — the price of
// skipping the host's deduplicating staging buffer) in a single routed
// round. A nil traffic matrix forces the host path regardless of
// topology. The caller has already scaled sendBytes/recvBytes/traffic to
// elem's wire size; elem tags the round in the precision ledger.
func (c *Context) HaloExchangeElemOn(phase string, sendBytes, recvBytes []int, traffic [][]int, elem Elem, after ...StreamEvent) StreamEvent {
	if traffic == nil || c.hostBounce() {
		red := c.commRound(phase, dirD2H, sendBytes, elem, after)
		return c.commRound(phase, dirH2D, recvBytes, elem, []StreamEvent{red})
	}
	return c.peerRound(phase, traffic, elem, after)
}
