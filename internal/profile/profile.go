// Package profile ships the calibrated machine profiles the simulator
// can be pointed at: the paper's 2014 testbed (gpu.M2090: M2090 GPUs
// behind one host PCIe hub) and two modern references (A100 boxes joined by a PCIe
// switch, H100 boxes joined by an NVLink ring). A profile bundles the
// per-device compute constants with an explicit interconnect topology
// (gpu.Profile); the solver program is identical under every profile —
// only the modeled time changes, which is exactly what lets the
// topology study ask how the paper's CA-vs-standard trade-off shifts as
// device-to-device links get fatter.
//
// All constants are sustained (not peak) figures from vendor
// documentation and published STREAM/DGEMM measurements, in the same
// spirit as the M2090 calibration in internal/gpu.
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cagmres/internal/gpu"
)

// A100PCIe models a contemporary PCIe server: A100-80GB (PCIe) devices,
// each with a private Gen4 x16 up-link into a non-blocking PCIe switch,
// driven by a two-socket Ice Lake host. Peer traffic crosses the switch
// without touching the host.
func A100PCIe() gpu.Profile {
	return gpu.Profile{
		Name: "a100-pcie",
		Model: gpu.CostModel{
			Latency:      10e-6,  // host<->device round (driver + DMA setup)
			Bandwidth:    24e9,   // sustained PCIe 4.0 x16
			DeviceGflops: 8500,   // sustained FP64 DGEMM (9.7 Tflop/s peak w/o TC)
			DeviceMemBW:  1.4e12, // sustained of 1.9 TB/s HBM2e
			HostGflops:   1500,   // 2x Ice Lake 32-core threaded MKL
			HostMemBW:    300e9,  // two-socket sustained stream
			KernelLaunch: 3e-6,
			FP32Speedup:  2, // FP32 CUDA cores run 2x the FP64 rate
		},
		Topo: gpu.Topology{
			Kind:          gpu.TopoPCIeSwitch,
			PeerLatency:   5e-6, // P2P DMA through the switch, no host IRQ
			PeerBandwidth: 22e9, // per-link, slightly under the host link
		},
		// Ampere copy engines move bf16 payloads natively over P2P DMA.
		BF16Transfer: true,
	}
}

// H100NVLink models an NVLink-class node: H100-SXM devices joined in an
// NVLink ring (the DGX wiring reduced to its ring backbone), PCIe 5.0
// to the host, Sapphire Rapids CPUs. Peer traffic takes the shortest
// arc around the ring at NVLink bandwidth — the "fat links" end of the
// topology study.
func H100NVLink() gpu.Profile {
	return gpu.Profile{
		Name: "h100-nvlink",
		Model: gpu.CostModel{
			Latency:      8e-6,
			Bandwidth:    40e9,   // sustained PCIe 5.0 x16
			DeviceGflops: 26000,  // sustained FP64 DGEMM (34 Tflop/s peak)
			DeviceMemBW:  3.0e12, // sustained of 3.35 TB/s HBM3
			HostGflops:   2000,   // 2x Sapphire Rapids threaded MKL
			HostMemBW:    400e9,
			KernelLaunch: 2e-6,
			FP32Speedup:  2, // FP32 vector throughput over FP64 (no TC)
		},
		Topo: gpu.Topology{
			Kind:          gpu.TopoNVLinkRing,
			PeerLatency:   2e-6,  // NVLink hop latency
			PeerBandwidth: 150e9, // per-direction sustained of one ring link
		},
		// NVLink SHARP-era copy engines ship bf16 halves natively.
		BF16Transfer: true,
	}
}

// builders maps canonical profile names to constructors. Construction
// on every lookup keeps the returned values independent — callers may
// mutate their copy freely.
var builders = map[string]func() gpu.Profile{
	"m2090":       gpu.M2090,
	"a100-pcie":   A100PCIe,
	"h100-nvlink": H100NVLink,
}

// Names returns the shipped profile names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName resolves a profile by its canonical name (case-insensitive).
func ByName(name string) (gpu.Profile, error) {
	b, ok := builders[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return gpu.Profile{}, fmt.Errorf("profile: unknown profile %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return b(), nil
}

// WithTopology returns a copy of p rewired with the named topology
// kind, keeping p's peer link constants. Use it to ask counterfactuals
// like "the A100 box, but with its devices rung together": the compute
// model stays fixed while the interconnect shape varies — the knob the
// topology study (`experiments -fig topology`) turns.
func WithTopology(p gpu.Profile, kind gpu.TopoKind) (gpu.Profile, error) {
	t := gpu.Topology{Kind: kind, PeerLatency: p.Topo.PeerLatency, PeerBandwidth: p.Topo.PeerBandwidth}
	if !t.Valid() {
		return gpu.Profile{}, fmt.Errorf("profile: unknown topology kind %q", kind)
	}
	p.Topo = t
	if kind != "" {
		p.Name = p.Name + "+" + string(kind)
	}
	if p.BF16Transfer && !bf16Supported(p) {
		// Rewiring took the narrow transfer path away (host-hub bounces
		// halos through pageable host memory): drop the inherited claim.
		p.BF16Transfer = false
	}
	return p, nil
}

// FromFlags resolves the -profile/-topology flag pair every command-line
// front end exposes. Both empty selects the paper's m2090; a -topology
// override on its own rewires it.
func FromFlags(name, topo string) (gpu.Profile, error) {
	p := gpu.M2090()
	if name != "" {
		var err error
		if p, err = ByName(name); err != nil {
			return gpu.Profile{}, err
		}
	}
	if topo != "" {
		return WithTopology(p, gpu.TopoKind(strings.ToLower(strings.TrimSpace(topo))))
	}
	return p, nil
}

// Spec is the JSON wire form of a profile selection: a shipped base
// profile plus optional overrides. Every override field is optional;
// zero/empty means "keep the base value". It is what the HTTP solve API
// and the config decoder accept.
type Spec struct {
	// Base names a shipped profile ("m2090", "a100-pcie", "h100-nvlink").
	// Empty selects m2090, the paper's machine.
	Base string `json:"base,omitempty"`
	// Topology overrides the base profile's topology kind ("host-hub",
	// "pcie-switch", "nvlink-ring", "all-to-all").
	Topology string `json:"topology,omitempty"`
	// PeerLatencyUS / PeerBandwidthGBs override the peer link constants
	// (microseconds / GB/s — wire-friendly units).
	PeerLatencyUS    float64 `json:"peer_latency_us,omitempty"`
	PeerBandwidthGBs float64 `json:"peer_bandwidth_gbs,omitempty"`
	// Model overrides individual cost-model constants; nil keeps the
	// base model.
	Model *ModelSpec `json:"model,omitempty"`
	// FP32Speedup overrides the device throughput ratio of single- over
	// double-precision kernels (1 = no speedup). Must lie in [1, 8] —
	// anything outside that band is a typo, not a GPU.
	FP32Speedup float64 `json:"fp32_speedup,omitempty"`
	// BF16TransferOK overrides the bfloat16-transfer capability claim.
	// Claiming it requires a peer-to-peer topology (host-hub machines
	// bounce halos through pageable host memory, which has no narrow
	// path) and, on a clustered profile, an InfiniBand fabric (RDMA ships
	// untranslated device payloads; the Ethernet stacks re-frame).
	BF16TransferOK *bool `json:"bf16_transfer_ok,omitempty"`
	// DevicesPerNode groups the devices into simulated compute nodes of
	// this size, arming the two-tier cluster interconnect; 0 keeps the
	// single-node machine.
	DevicesPerNode int `json:"devices_per_node,omitempty"`
	// Fabric names a shipped inter-node fabric ("ib-hdr", "ib-edr",
	// "ethernet-100g", "ethernet-25g"); empty with a node size selects
	// ib-hdr. Requires devices_per_node.
	Fabric string `json:"fabric,omitempty"`
	// FabricLatencyUS / FabricBandwidthGBs override the fabric link
	// constants (microseconds / GB/s).
	FabricLatencyUS    float64 `json:"fabric_latency_us,omitempty"`
	FabricBandwidthGBs float64 `json:"fabric_bandwidth_gbs,omitempty"`
}

// ModelSpec carries optional cost-model overrides in wire-friendly
// units. Zero fields keep the base profile's value.
type ModelSpec struct {
	LatencyUS      float64 `json:"latency_us,omitempty"`
	BandwidthGBs   float64 `json:"bandwidth_gbs,omitempty"`
	DeviceGflops   float64 `json:"device_gflops,omitempty"`
	DeviceMemBWGBs float64 `json:"device_mem_bw_gbs,omitempty"`
	HostGflops     float64 `json:"host_gflops,omitempty"`
	HostMemBWGBs   float64 `json:"host_mem_bw_gbs,omitempty"`
	KernelLaunchUS float64 `json:"kernel_launch_us,omitempty"`
}

// Resolve materializes the spec into a profile: base lookup, then
// overrides, then validation. It never panics on hostile input — every
// failure is an error, which is what makes it safe to fuzz and to wire
// straight to the HTTP API.
func (s Spec) Resolve() (gpu.Profile, error) {
	base := s.Base
	if strings.TrimSpace(base) == "" {
		base = "m2090"
	}
	p, err := ByName(base)
	if err != nil {
		return gpu.Profile{}, err
	}
	if s.Topology != "" {
		kind := gpu.TopoKind(strings.ToLower(strings.TrimSpace(s.Topology)))
		q, err := WithTopology(p, kind)
		if err != nil {
			return gpu.Profile{}, err
		}
		p = q
	}
	if s.PeerLatencyUS != 0 {
		p.Topo.PeerLatency = s.PeerLatencyUS * 1e-6
	}
	if s.PeerBandwidthGBs != 0 {
		p.Topo.PeerBandwidth = s.PeerBandwidthGBs * 1e9
	}
	if m := s.Model; m != nil {
		if m.LatencyUS != 0 {
			p.Model.Latency = m.LatencyUS * 1e-6
		}
		if m.BandwidthGBs != 0 {
			p.Model.Bandwidth = m.BandwidthGBs * 1e9
		}
		if m.DeviceGflops != 0 {
			p.Model.DeviceGflops = m.DeviceGflops
		}
		if m.DeviceMemBWGBs != 0 {
			p.Model.DeviceMemBW = m.DeviceMemBWGBs * 1e9
		}
		if m.HostGflops != 0 {
			p.Model.HostGflops = m.HostGflops
		}
		if m.HostMemBWGBs != 0 {
			p.Model.HostMemBW = m.HostMemBWGBs * 1e9
		}
		if m.KernelLaunchUS != 0 {
			p.Model.KernelLaunch = m.KernelLaunchUS * 1e-6
		}
	}
	if s.FP32Speedup != 0 {
		p.Model.FP32Speedup = s.FP32Speedup
	}
	if s.DevicesPerNode != 0 || s.Fabric != "" || s.FabricLatencyUS != 0 || s.FabricBandwidthGBs != 0 {
		if s.DevicesPerNode < 1 {
			return gpu.Profile{}, fmt.Errorf("profile: fabric settings need devices_per_node >= 1, got %d", s.DevicesPerNode)
		}
		fab := fabrics[defaultFabricName]
		if s.Fabric != "" {
			f, err := FabricByName(s.Fabric)
			if err != nil {
				return gpu.Profile{}, err
			}
			fab = f
		}
		if s.FabricLatencyUS != 0 {
			fab.Latency = s.FabricLatencyUS * 1e-6
		}
		if s.FabricBandwidthGBs != 0 {
			fab.Bandwidth = s.FabricBandwidthGBs * 1e9
		}
		q, err := WithCluster(p, s.DevicesPerNode, fab)
		if err != nil {
			return gpu.Profile{}, err
		}
		p = q
	}
	if s.BF16TransferOK != nil {
		p.BF16Transfer = *s.BF16TransferOK
	} else if p.BF16Transfer && !bf16Supported(p) {
		// The base profile's capability didn't survive the overrides
		// (host-hub rewiring, non-RDMA fabric): downgrade the inherited
		// claim silently. Only an explicit bf16_transfer_ok claim on an
		// unsupporting machine is an error.
		p.BF16Transfer = false
	}
	if err := validate(p); err != nil {
		return gpu.Profile{}, err
	}
	return p, nil
}

// Decode parses a JSON profile spec and resolves it. Empty input (or
// JSON null) yields the default m2090 profile.
func Decode(data []byte) (gpu.Profile, error) {
	if len(strings.TrimSpace(string(data))) == 0 {
		return gpu.M2090(), nil
	}
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return gpu.Profile{}, fmt.Errorf("profile: bad spec: %w", err)
	}
	// Trailing garbage after the object is a malformed request, not an
	// extension point.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil {
		return gpu.Profile{}, fmt.Errorf("profile: trailing data after spec")
	}
	return s.Resolve()
}

// validate rejects physically meaningless profiles: every rate must be
// positive and finite, every latency non-negative and finite.
func validate(p gpu.Profile) error {
	pos := func(name string, v float64) error {
		if !(v > 0) || v > 1e30 { // NaN fails the comparison too
			return fmt.Errorf("profile: %s must be positive and finite, got %g", name, v)
		}
		return nil
	}
	nonneg := func(name string, v float64) error {
		if !(v >= 0) || v > 1e30 {
			return fmt.Errorf("profile: %s must be non-negative and finite, got %g", name, v)
		}
		return nil
	}
	m := p.Model
	checks := []error{
		nonneg("latency", m.Latency),
		pos("bandwidth", m.Bandwidth),
		pos("device_gflops", m.DeviceGflops),
		pos("device_mem_bw", m.DeviceMemBW),
		pos("host_gflops", m.HostGflops),
		pos("host_mem_bw", m.HostMemBW),
		nonneg("kernel_launch", m.KernelLaunch),
		nonneg("peer_latency", p.Topo.PeerLatency),
		pos("peer_bandwidth", p.Topo.PeerBandwidth),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if !p.Topo.Valid() {
		return fmt.Errorf("profile: unknown topology kind %q", p.Topo.Kind)
	}
	if p.Clustered() {
		if err := nonneg("fabric_latency", p.Cluster.Fabric.Latency); err != nil {
			return err
		}
		if err := pos("fabric_bandwidth", p.Cluster.Fabric.Bandwidth); err != nil {
			return err
		}
	}
	if sp := m.FP32Speedup; sp != 0 && (!(sp >= 1) || sp > 8) {
		return fmt.Errorf("profile: fp32_speedup must lie in [1, 8], got %g", sp)
	}
	if p.BF16Transfer {
		if !p.Topo.PeerToPeer() {
			return fmt.Errorf("profile: bf16_transfer_ok needs a peer-to-peer topology, not %q", p.Topo.Kind)
		}
		if p.Clustered() {
			switch p.Cluster.Fabric.Kind {
			case gpu.FabricIBHDR, gpu.FabricIBEDR:
			default:
				return fmt.Errorf("profile: bf16_transfer_ok needs an RDMA fabric, not %q", p.Cluster.Fabric.Kind)
			}
		}
	}
	return nil
}

// bf16Supported reports whether the assembled machine can honor a
// bfloat16-transfer claim: peer-to-peer device links and, when the
// cluster tier is armed, an RDMA fabric.
func bf16Supported(p gpu.Profile) bool {
	if !p.Topo.PeerToPeer() {
		return false
	}
	if p.Clustered() {
		switch p.Cluster.Fabric.Kind {
		case gpu.FabricIBHDR, gpu.FabricIBEDR:
		default:
			return false
		}
	}
	return true
}
