package gpu

import "fmt"

// This file is the machine shape every transfer is routed over: the
// devices are grouped into simulated nodes of perNode devices, each
// node's devices joined by the profile's node-local Topology and the
// nodes joined by an inter-node Fabric (the second network tier the
// paper's conclusion asks for). A profile without a Cluster is the
// cluster of one node holding every physical device: the same two
// functions below route it, no pair ever crosses the fabric, and
// BytesInterNode stays zero. Like every profile knob, the shape reorders
// *time*, never arithmetic — iterates are bit-identical whether the
// devices live in one box or sixty-four.

// FabricKind names an inter-node interconnect generation.
type FabricKind string

// The shipped fabric kinds. The constants live in internal/profile;
// the kind here is a free-form label carried into reports.
const (
	// FabricIBHDR is an InfiniBand HDR-class RDMA fabric.
	FabricIBHDR FabricKind = "ib-hdr"
	// FabricIBEDR is the previous InfiniBand generation.
	FabricIBEDR FabricKind = "ib-edr"
	// FabricEthernet100G is RoCE-style 100G Ethernet.
	FabricEthernet100G FabricKind = "ethernet-100g"
	// FabricEthernet25G is plain 25G Ethernet with a kernel TCP stack —
	// the high-latency end of the study.
	FabricEthernet25G FabricKind = "ethernet-25g"
)

// Fabric is the inter-node tier of a two-tier interconnect: the α/β
// constants of one node's uplink into the cluster network.
type Fabric struct {
	Kind FabricKind
	// Latency is the per-round inter-node latency (MPI pt2pt + NIC), the
	// fabric's alpha term.
	Latency float64
	// Bandwidth is one node uplink's bandwidth in bytes/second, the
	// fabric's beta term.
	Bandwidth float64
}

// Cluster groups a profile's devices into simulated compute nodes.
// DevicesPerNode == 0 (the zero value) leaves the profile a single node.
type Cluster struct {
	// DevicesPerNode is the device count of one node; context devices
	// are grouped by physical id (devices 0..G-1 are node 0, and so on).
	DevicesPerNode int
	// Fabric is the inter-node interconnect joining the nodes.
	Fabric Fabric
}

// Enabled reports whether the profile groups its devices into nodes.
func (cl Cluster) Enabled() bool { return cl.DevicesPerNode > 0 }

// mapNodes rebuilds the view's node map for its current profile: node
// membership follows physical ids, so a Survivors view keeps each
// surviving device on its original node, and an unclustered profile is
// one node holding every physical device. phys is ascending, so node is
// non-decreasing and each node's devices are one run of logical indices
// — what lets the routing below walk nodes without per-node scratch.
// Built here, once per view and profile, so that no charge allocates it.
func (c *Context) mapNodes() {
	c.perNode = c.prof.Cluster.DevicesPerNode
	if c.perNode <= 0 {
		c.perNode = c.physDevices()
	}
	if len(c.node) != len(c.phys) {
		c.node = make([]int, len(c.phys))
	}
	for d, p := range c.phys {
		c.node[d] = p / c.perNode
	}
}

// roundTime models one host round (reduce/broadcast): every device's
// share crosses its own node's host link (segments concurrent, so the
// local leg costs the most loaded node), then the remote nodes'
// aggregates cross the fabric to the root node's host (uplinks
// concurrent). The legs are sequential. On one node this is the paper's
// round: one latency plus the serialized bus time of the total volume.
func (c *Context) roundTime(bytes []int) float64 {
	maxVol, maxRemote, inter := 0, 0, 0
	for lo, hi := 0, 0; lo < len(bytes); lo = hi {
		vol := 0
		for hi = lo; hi < len(bytes) && c.node[hi] == c.node[lo]; hi++ {
			vol += bytes[hi]
		}
		maxVol = max(maxVol, vol)
		if c.node[lo] != 0 {
			inter += vol
			maxRemote = max(maxRemote, vol)
		}
	}
	m := c.prof.Model
	t := m.Latency + float64(maxVol)/m.Bandwidth
	if inter > 0 {
		fab := c.prof.Cluster.Fabric
		t += fab.Latency + float64(maxRemote)/fab.Bandwidth
	}
	return t
}

// routeExchange converts one exchange round into modeled seconds.
// traffic[s][d] is the byte volume LOGICAL device s ships to logical
// device d; routing happens on PHYSICAL positions, so a Survivors view
// charges the hops of the surviving devices' real positions. Node-local
// pairs route within their node over the peer tier (every node's
// segment works concurrently, so the intra leg costs the slowest node);
// cross-node pairs load their endpoint nodes' fabric uplinks, and the
// fabric round costs one fabric latency plus the most loaded uplink
// direction (a non-blocking switch over node uplinks — the standard
// fat-tree abstraction). The two legs are sequential: boundary values
// hop the local tier before they can cross the fabric.
func (c *Context) routeExchange(traffic [][]int) float64 {
	topo := c.prof.Topo
	// Directed link loads of one node's positions, reused node after node
	// and round after round.
	var a, b []int
	if topo.Kind == TopoNVLinkRing || topo.Kind == TopoPCIeSwitch {
		links := sized(&c.scratch.links, 2*c.perNode)
		a, b = links[:c.perNode], links[c.perNode:]
	}
	t, maxUp, inter := 0.0, 0, 0
	for lo, hi := 0, 0; lo < len(traffic); lo = hi {
		for hi = lo; hi < len(traffic) && c.node[hi] == c.node[lo]; hi++ {
		}
		if nt, used := c.routeNode(traffic, lo, hi, a, b); used && nt > t {
			t = nt
		}
		// The node's fabric uplink: what its devices ship to other nodes
		// and what other nodes ship to them.
		out, in := 0, 0
		for s, row := range traffic {
			l, h := min(lo, len(row)), min(hi, len(row))
			if s >= lo && s < hi {
				out += positive(row[:l]) + positive(row[h:])
			} else {
				in += positive(row[l:h])
			}
		}
		inter += out
		maxUp = max(maxUp, out, in)
	}
	if inter > 0 {
		fab := c.prof.Cluster.Fabric
		t += fab.Latency + float64(maxUp)/fab.Bandwidth
	}
	if t == 0 {
		t = topo.PeerLatency // an empty round still pays one launch
	}
	return t
}

// positive sums the positive entries of a traffic row segment.
func positive(row []int) int {
	sum := 0
	for _, v := range row {
		if v > 0 {
			sum += v
		}
	}
	return sum
}

// routeNode routes the pairs of one node — the block traffic[lo:hi][lo:hi]
// — over the node-local topology, at each device's position within its
// node (dead or absent positions simply carry nothing). used reports
// whether the node had traffic at all. a and b are zeroed scratch for
// the kinds that load links.
func (c *Context) routeNode(traffic [][]int, lo, hi int, a, b []int) (t float64, used bool) {
	topo, g := c.prof.Topo, c.perNode
	clear(a)
	clear(b)
	load, hops := 0, 1
	for s := lo; s < hi; s++ {
		ps := c.phys[s] % g
		row := traffic[s]
		for d := lo; d < hi && d < len(row); d++ {
			v := row[d]
			if v <= 0 || s == d {
				continue
			}
			used = true
			pd := c.phys[d] % g
			switch topo.Kind {
			case TopoNVLinkRing:
				// Shortest arc around the node's ring, ties clockwise:
				// a[i] carries i -> i+1 (mod g), b[i] carries i -> i-1.
				fwd := (pd - ps + g) % g
				arc := fwd
				if fwd <= g-fwd {
					for k := 0; k < fwd; k++ {
						a[(ps+k)%g] += v
					}
				} else {
					arc = g - fwd
					for k := 0; k < arc; k++ {
						b[(ps-k+g)%g] += v
					}
				}
				hops = max(hops, arc)
			case TopoPCIeSwitch:
				// Full-duplex per-device up-links into a non-blocking switch.
				a[ps] += v
				b[pd] += v
			case TopoAllToAll:
				// Dedicated link per ordered pair: the slowest pair bounds the round.
				load = max(load, v)
			default:
				// Host-hub: every exchanged byte crosses the node's host link twice.
				load += v
			}
		}
	}
	for i := range a {
		load = max(load, a[i], b[i])
	}
	if !topo.PeerToPeer() {
		// One reduce round and one broadcast round over the node's host link.
		return 2*c.prof.Model.Latency + 2*float64(load)/c.prof.Model.Bandwidth, used
	}
	// Hop count times the peer latency plus the most loaded directed link.
	return topo.PeerLatency*float64(hops) + float64(load)/topo.PeerBandwidth, used
}

// Valid reports whether the fabric constants are physically meaningful
// for an armed cluster: non-negative finite latency, positive finite
// bandwidth.
func (f Fabric) Valid() bool {
	return f.Latency >= 0 && f.Latency <= 1e30 && f.Bandwidth > 0 && f.Bandwidth <= 1e30
}

// String renders the fabric for reports ("ib-hdr 5us/25GB/s").
func (f Fabric) String() string {
	return fmt.Sprintf("%s %.3gus/%.3gGB/s", f.Kind, f.Latency*1e6, f.Bandwidth/1e9)
}
