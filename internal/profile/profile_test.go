package profile

import (
	"strings"
	"testing"

	"cagmres/internal/gpu"
)

// TestConformance instantiates the conformance suite for every
// shipped profile — the fence behind which new machine descriptions
// land.
func TestConformance(t *testing.T) {
	for _, name := range Names() {
		p := builders[name]()
		t.Run(p.Name, func(t *testing.T) { conform(t, p) })
	}
}

// TestConformanceCounterfactuals runs the suite over the WithTopology
// rewirings the topology study uses, so the counterfactual machines are
// held to the same invariants as the shipped ones.
func TestConformanceCounterfactuals(t *testing.T) {
	kinds := []gpu.TopoKind{gpu.TopoHostHub, gpu.TopoPCIeSwitch, gpu.TopoNVLinkRing, gpu.TopoAllToAll}
	for _, kind := range kinds {
		p, err := WithTopology(A100PCIe(), kind)
		if err != nil {
			t.Fatalf("WithTopology(%s): %v", kind, err)
		}
		t.Run(p.Name, func(t *testing.T) { conform(t, p) })
	}
}

// TestConformanceCluster holds the two-tier machines to the same fence:
// every shipped fabric over a peer-routed node and over the paper's
// host-hub node.
func TestConformanceCluster(t *testing.T) {
	for _, fabric := range fabricNames() {
		fab, err := FabricByName(fabric)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []gpu.Profile{gpu.M2090(), A100PCIe()} {
			p, err := WithCluster(base, 2, fab)
			if err != nil {
				t.Fatalf("WithCluster(%s, %s): %v", base.Name, fabric, err)
			}
			t.Run(p.Name, func(t *testing.T) { conformCluster(t, p) })
		}
	}
}

func TestFabricByName(t *testing.T) {
	for _, name := range fabricNames() {
		f, err := FabricByName(name)
		if err != nil {
			t.Fatalf("FabricByName(%s): %v", name, err)
		}
		if string(f.Kind) != name {
			t.Errorf("fabric %s carries kind %q", name, f.Kind)
		}
		if !f.Valid() {
			t.Errorf("shipped fabric %s fails Valid: %+v", name, f)
		}
	}
	if f, err := FabricByName(" IB-HDR "); err != nil || f.Kind != gpu.FabricIBHDR {
		t.Errorf("case/space-insensitive fabric lookup failed: %+v, %v", f, err)
	}
	if _, err := FabricByName("myrinet"); err == nil {
		t.Error("FabricByName(myrinet) should fail")
	}
}

func TestM2090MatchesBareModel(t *testing.T) {
	// The shipped m2090 is the simulator's own machine, gpu.M2090: a
	// host-hub topology whose peer constants mirror the host link, the
	// wiring every pre-profile context had, so its ledger is
	// byte-identical to history.
	p, err := ByName("m2090")
	if err != nil {
		t.Fatal(err)
	}
	if p != gpu.M2090() {
		t.Fatalf("m2090 profile drifted: %+v vs %+v", p, gpu.M2090())
	}
	if p.Topo.Kind != gpu.TopoHostHub || p.Topo.PeerToPeer() {
		t.Fatalf("m2090 profile must route through the host, got %+v", p.Topo)
	}
	if p.Topo.PeerLatency != p.Model.Latency || p.Topo.PeerBandwidth != p.Model.Bandwidth {
		t.Fatalf("m2090 peer constants %+v must mirror the host link %+v", p.Topo, p.Model)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%s) returned profile named %q", name, p.Name)
		}
	}
	if p, err := ByName("  A100-PCIE "); err != nil || p.Name != "a100-pcie" {
		t.Errorf("case/space-insensitive lookup failed: %+v, %v", p, err)
	}
	if _, err := ByName("k80"); err == nil {
		t.Error("ByName(k80) should fail")
	}
}

func TestDecode(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		ok    bool
		check func(p gpu.Profile) bool
	}{
		{"empty", "", true, func(p gpu.Profile) bool { return p.Name == "m2090" }},
		{"base-only", `{"base":"h100-nvlink"}`, true, func(p gpu.Profile) bool { return p.Topo.Kind == gpu.TopoNVLinkRing }},
		{"topology-override", `{"base":"a100-pcie","topology":"all-to-all"}`, true,
			func(p gpu.Profile) bool { return p.Topo.Kind == gpu.TopoAllToAll }},
		{"peer-override", `{"peer_latency_us":3,"peer_bandwidth_gbs":50}`, true,
			func(p gpu.Profile) bool { return p.Topo.PeerLatency == 3e-6 && p.Topo.PeerBandwidth == 50e9 }},
		{"model-override", `{"model":{"device_gflops":1234}}`, true,
			func(p gpu.Profile) bool { return p.Model.DeviceGflops == 1234 }},
		{"cluster-default-fabric", `{"devices_per_node":2}`, true,
			func(p gpu.Profile) bool { return p.Clustered() && p.Cluster.Fabric.Kind == gpu.FabricIBHDR }},
		{"cluster-named-fabric", `{"base":"a100-pcie","devices_per_node":4,"fabric":"ethernet-25g"}`, true,
			func(p gpu.Profile) bool {
				return p.Cluster.DevicesPerNode == 4 && p.Cluster.Fabric.Kind == gpu.FabricEthernet25G
			}},
		{"cluster-constant-override", `{"devices_per_node":2,"fabric":"ib-edr","fabric_latency_us":9,"fabric_bandwidth_gbs":20}`, true,
			func(p gpu.Profile) bool {
				return p.Cluster.Fabric.Latency == 9e-6 && p.Cluster.Fabric.Bandwidth == 20e9
			}},
		{"fp32-speedup-override", `{"base":"m2090","fp32_speedup":1.8}`, true,
			func(p gpu.Profile) bool { return p.Model.FP32Speedup == 1.8 }},
		{"bf16-claim-on-capable", `{"base":"a100-pcie","bf16_transfer_ok":true}`, true,
			func(p gpu.Profile) bool { return p.BF16Transfer }},
		{"bf16-disclaim", `{"base":"a100-pcie","bf16_transfer_ok":false}`, true,
			func(p gpu.Profile) bool { return !p.BF16Transfer }},
		{"bf16-inherited-downgrades-on-hub", `{"base":"a100-pcie","topology":"host-hub"}`, true,
			func(p gpu.Profile) bool { return !p.BF16Transfer }},
		{"bf16-inherited-downgrades-on-ethernet", `{"base":"a100-pcie","devices_per_node":2,"fabric":"ethernet-100g"}`, true,
			func(p gpu.Profile) bool { return !p.BF16Transfer }},
		{"bf16-survives-rdma-fabric", `{"base":"a100-pcie","devices_per_node":2,"fabric":"ib-hdr"}`, true,
			func(p gpu.Profile) bool { return p.BF16Transfer }},
		{"bf16-claim-on-host-hub", `{"base":"m2090","bf16_transfer_ok":true}`, false, nil},
		{"bf16-claim-on-ethernet-fabric", `{"base":"a100-pcie","devices_per_node":2,"fabric":"ethernet-25g","bf16_transfer_ok":true}`, false, nil},
		{"fp32-speedup-too-small", `{"fp32_speedup":0.5}`, false, nil},
		{"fp32-speedup-too-large", `{"fp32_speedup":50}`, false, nil},
		{"fp32-speedup-nan", `{"fp32_speedup":1e999}`, false, nil},
		{"fabric-without-nodes", `{"fabric":"ib-hdr"}`, false, nil},
		{"unknown-fabric", `{"devices_per_node":2,"fabric":"myrinet"}`, false, nil},
		{"negative-node-size", `{"devices_per_node":-2,"fabric":"ib-hdr"}`, false, nil},
		{"negative-fabric-bandwidth", `{"devices_per_node":2,"fabric_bandwidth_gbs":-1}`, false, nil},
		{"unknown-base", `{"base":"k80"}`, false, nil},
		{"unknown-topology", `{"topology":"torus"}`, false, nil},
		{"unknown-field", `{"bandwidth":9}`, false, nil},
		{"negative-bandwidth", `{"peer_bandwidth_gbs":-1}`, false, nil},
		{"nan-smuggle", `{"peer_latency_us":1e400}`, false, nil},
		{"trailing-garbage", `{"base":"m2090"} {"base":"m2090"}`, false, nil},
		{"not-json", `machine: m2090`, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Decode([]byte(tc.in))
			if tc.ok && err != nil {
				t.Fatalf("Decode(%q): %v", tc.in, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Decode(%q) should fail, got %+v", tc.in, p)
			}
			if tc.ok && tc.check != nil && !tc.check(p) {
				t.Errorf("Decode(%q) = %+v failed check", tc.in, p)
			}
		})
	}
}

// TestDecodedProfilesConform runs the conformance suite on a decoded
// spec with aggressive overrides — a user-supplied profile gets exactly
// the same fence as a shipped one.
func TestDecodedProfilesConform(t *testing.T) {
	p, err := Decode([]byte(`{"base":"a100-pcie","topology":"nvlink-ring","peer_latency_us":1,"peer_bandwidth_gbs":200,"model":{"device_gflops":20000}}`))
	if err != nil {
		t.Fatal(err)
	}
	conform(t, p)
}

// FuzzDecode asserts the profile/topology config decoder never panics
// and never resolves to a profile that fails validation: any input
// either errors or yields a profile the simulator can cost safely.
func FuzzDecode(f *testing.F) {
	seeds := []string{
		"",
		`{}`,
		`{"base":"m2090"}`,
		`{"base":"a100-pcie","topology":"nvlink-ring"}`,
		`{"base":"h100-nvlink","peer_latency_us":2,"peer_bandwidth_gbs":150}`,
		`{"model":{"latency_us":10,"bandwidth_gbs":24,"device_gflops":8500,"device_mem_bw_gbs":1400,"host_gflops":1500,"host_mem_bw_gbs":300,"kernel_launch_us":3}}`,
		`{"topology":"all-to-all"}`,
		`{"devices_per_node":2,"fabric":"ib-hdr"}`,
		`{"base":"a100-pcie","devices_per_node":1,"fabric":"ethernet-25g","fabric_latency_us":50,"fabric_bandwidth_gbs":2}`,
		`{"fabric":"myrinet"}`,
		`{"devices_per_node":-3}`,
		`{"base":"k80"}`,
		`{"peer_bandwidth_gbs":-1}`,
		`{"peer_latency_us":1e308}`,
		`[1,2,3]`,
		`null`,
		"{\"base\":\"m2090\"}\x00",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if err := validate(p); err != nil {
			t.Fatalf("Decode accepted invalid profile %+v from %q: %v", p, data, err)
		}
		// A decoded profile must be usable: context creation and a
		// small charge must not panic or produce a non-finite time.
		c := gpu.NewContext(2, p)
		c.Gather("fuzz", 16, gpu.Elem64)
		c.HaloExchangeElemOn("fuzz", []int{64, 64}, []int{64, 64}, [][]int{{0, 64}, {64, 0}}, gpu.Elem64)
		if tt := c.Stats().TotalTime(); !(tt >= 0) {
			t.Fatalf("non-finite total time %g from %q", tt, data)
		}
	})
}

func TestWithTopologyRejectsUnknown(t *testing.T) {
	if _, err := WithTopology(gpu.M2090(), gpu.TopoKind("torus")); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("expected torus rejection, got %v", err)
	}
}

func TestFromFlags(t *testing.T) {
	if p, err := FromFlags("", ""); err != nil || p != gpu.M2090() {
		t.Fatalf("empty flags: want m2090, got %+v, %v", p, err)
	}
	p, err := FromFlags("H100-NVLink", "")
	if err != nil || p.Name != "h100-nvlink" {
		t.Fatalf("named profile: got %+v, %v", p, err)
	}
	p, err = FromFlags("", "all-to-all")
	if err != nil || p.Topo.Kind != gpu.TopoAllToAll {
		t.Fatalf("bare topology: got %+v, %v", p, err)
	}
	if p.Model != gpu.M2090().Model {
		t.Fatalf("bare topology must keep the m2090 model")
	}
	p, err = FromFlags("a100-pcie", "NVLink-Ring")
	if err != nil || p.Topo.Kind != gpu.TopoNVLinkRing || p.Name != "a100-pcie+nvlink-ring" {
		t.Fatalf("profile+topology: got %+v, %v", p, err)
	}
	if _, err := FromFlags("k20", ""); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := FromFlags("", "torus"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
