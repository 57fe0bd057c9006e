package profile

import (
	"fmt"
	"sort"
	"strings"

	"cagmres/internal/gpu"
)

// This file ships the inter-node fabric catalog and WithCluster, which arms
// the cluster tier on a profile. A fabric is one node uplink's α/β into
// the cluster network; constants are sustained figures for the usual
// datacenter interconnect generations, calibrated to published MPI
// pt2pt/osu-benchmark numbers rather than NIC line rates.

// fabrics maps canonical fabric names to their link constants.
var fabrics = map[string]gpu.Fabric{
	// HDR InfiniBand with RDMA: ~2 us NIC-to-NIC plus MPI overhead,
	// ~25 GB/s sustained of a 200 Gb/s link.
	"ib-hdr": {Kind: gpu.FabricIBHDR, Latency: 5e-6, Bandwidth: 25e9},
	// EDR InfiniBand (100 Gb/s): the Summit-era baseline.
	"ib-edr": {Kind: gpu.FabricIBEDR, Latency: 6e-6, Bandwidth: 12e9},
	// 100G Ethernet with RoCE: near-IB bandwidth, more protocol latency.
	"ethernet-100g": {Kind: gpu.FabricEthernet100G, Latency: 10e-6, Bandwidth: 12e9},
	// Plain 25G Ethernet through a kernel TCP stack — the high-latency,
	// thin-pipe end of the scaling study.
	"ethernet-25g": {Kind: gpu.FabricEthernet25G, Latency: 30e-6, Bandwidth: 3e9},
}

// defaultFabricName is the fabric a profile spec assumes when a
// cluster is armed without naming one.
const defaultFabricName = "ib-hdr"

// fabricNames returns the shipped fabric names, sorted.
func fabricNames() []string {
	names := make([]string, 0, len(fabrics))
	for n := range fabrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FabricByName resolves a shipped fabric by its canonical name
// (case-insensitive).
func FabricByName(name string) (gpu.Fabric, error) {
	f, ok := fabrics[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return gpu.Fabric{}, fmt.Errorf("profile: unknown fabric %q (have %s)", name, strings.Join(fabricNames(), ", "))
	}
	return f, nil
}

// WithCluster returns a copy of p with the cluster tier armed: the
// devices grouped into simulated nodes of devicesPerNode, joined by the
// fabric. Like WithTopology it is the counterfactual knob of the
// cluster study: the node-local machine stays fixed while the node
// count and fabric generation vary.
func WithCluster(p gpu.Profile, devicesPerNode int, fab gpu.Fabric) (gpu.Profile, error) {
	if devicesPerNode < 1 {
		return gpu.Profile{}, fmt.Errorf("profile: devices per node must be >= 1, got %d", devicesPerNode)
	}
	if !fab.Valid() {
		return gpu.Profile{}, fmt.Errorf("profile: invalid fabric constants %+v", fab)
	}
	p.Cluster = gpu.Cluster{DevicesPerNode: devicesPerNode, Fabric: fab}
	if fab.Kind != "" {
		p.Name = fmt.Sprintf("%s+%dx%s", p.Name, devicesPerNode, fab.Kind)
	}
	if p.BF16Transfer && !bf16Supported(p) {
		// A non-RDMA fabric re-frames inter-node payloads at full width:
		// the node-local bf16 claim does not extend to the cluster tier.
		p.BF16Transfer = false
	}
	return p, nil
}
