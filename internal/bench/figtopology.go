package bench

import (
	"fmt"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/profile"
	"cagmres/internal/sparse"
)

// topologyRow is one configuration of the interconnect-topology study:
// standard GMRES and CA-GMRES solving the same system on the same
// compute model, with the device-to-device fabric swept across
// interconnect generations.
type topologyRow struct {
	Matrix   string
	Topology string
	Devices  int
	S        int
	// GMRESSec / CASec are the modeled solve times of the two solvers.
	GMRESSec float64
	CASec    float64
	// CAAdvantage is GMRESSec / CASec — the paper's headline ratio,
	// re-asked under each interconnect.
	CAAdvantage float64
	// CASavedSec is GMRESSec - CASec: the absolute time communication
	// avoidance buys on this fabric. This is the column that shrinks as
	// links get fatter — the cheaper an exchange, the less there is to
	// avoid.
	CASavedSec float64
	// PeerMB is the CA solve's peer-routed traffic in MB (zero on the
	// host-hub fabric, where everything bounces through the host).
	PeerMB float64
	// P2PGain is the host-hub fabric's CASec over this fabric's CASec at
	// the same device count: what routing halo exchange peer-to-peer
	// instead of bouncing through the host buys CA-GMRES.
	P2PGain float64
}

// topoFabric is one interconnect generation of the study: a topology
// kind with its generation-appropriate link constants. The compute model
// and the host link are fixed (A100-class) so the fabric is the only
// thing that moves between rows.
type topoFabric struct {
	kind    gpu.TopoKind
	peerLat float64 // seconds per routed peer round
	peerBW  float64 // bytes/second per link
}

// figTopology is the interconnect study the profile layer exists for:
// the paper's G3_circuit configuration on a fixed A100-class compute
// model, with the device-to-device fabric swept across interconnect
// generations — host-bounced PCIe hub, PCIe switch (5us / 22 GB/s),
// NVLink ring (2us / 150 GB/s), NVSwitch all-to-all (2us / 300 GB/s).
// Two shapes are the reproduction targets, asserted by topology_test.go.
// First, peer-to-peer routing beats bouncing through the host on every
// peer fabric wherever more than one device talks (P2PGain > 1).
// Second, the absolute time communication avoidance saves (CASavedSec)
// SHRINKS monotonically as the fabric fattens: CA-GMRES buys its win by
// trading many latency-bound exchanges for fewer, bigger ones, so the
// cheaper the exchange, the less there is to avoid — the 2014 trade-off,
// re-priced on 2020s interconnects. The multiplicative ratio
// (CAAdvantage) stays near 1.43 on every fabric because CA's other win —
// avoided orthogonalization reductions — is host-side traffic no
// device fabric touches. Arithmetic is identical in every cell; only the
// machine description moves.
func figTopology(cfg Config) []topologyRow {
	cfg.defaults()
	mtx := benchG3(cfg.Scale)
	b := onesRHS(mtx.A.Rows)
	const s = 10
	fabrics := []topoFabric{
		{gpu.TopoHostHub, 5e-6, 22e9},
		{gpu.TopoPCIeSwitch, 5e-6, 22e9},
		{gpu.TopoNVLinkRing, 2e-6, 150e9},
		{gpu.TopoAllToAll, 2e-6, 300e9},
	}

	cfg.printf("Topology study: GMRES(30) vs CA-GMRES(%d,30) on %s, A100-class devices, device fabric swept (modeled ms)\n", s, mtx.Name)
	cfg.printf("%-12s %3s %12s %12s %8s %9s %9s %8s\n", "fabric", "ng", "gmres", "ca", "ca-adv", "ca-saved", "peerMB", "p2p-gain")

	// Host-hub CA times per device count, the P2PGain baseline.
	hostCA := make([]float64, cfg.MaxDevices+1)
	var out []topologyRow
	for _, f := range fabrics {
		prof := profile.A100PCIe()
		prof.Name = "a100+" + string(f.kind)
		prof.Topo = gpu.Topology{Kind: f.kind, PeerLatency: f.peerLat, PeerBandwidth: f.peerBW}
		for ng := 1; ng <= cfg.MaxDevices; ng++ {
			row := topologyRow{Matrix: mtx.Name, Topology: string(f.kind), Devices: ng, S: s}
			row.GMRESSec, _ = topologyArm(cfg, mtx.A, b, prof, ng, func(p *core.Problem) error {
				_, err := core.GMRES(p, core.Options{M: 30, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CGS"})
				return err
			})
			var peerBytes int
			row.CASec, peerBytes = topologyArm(cfg, mtx.A, b, prof, ng, func(p *core.Problem) error {
				_, err := core.CAGMRES(p, core.Options{M: 30, S: s, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CholQR", Precision: cfg.Precision})
				return err
			})
			row.PeerMB = float64(peerBytes) / 1e6
			row.CASavedSec = row.GMRESSec - row.CASec
			if row.CASec > 0 {
				row.CAAdvantage = row.GMRESSec / row.CASec
			}
			if f.kind == gpu.TopoHostHub {
				hostCA[ng] = row.CASec
			}
			if hostCA[ng] > 0 && row.CASec > 0 {
				row.P2PGain = hostCA[ng] / row.CASec
			}
			out = append(out, row)
			cfg.printf("%-12s %3d %12.4f %12.4f %8.3f %9.4f %9.3f %8.3f\n",
				row.Topology, row.Devices, ms(row.GMRESSec), ms(row.CASec), row.CAAdvantage, ms(row.CASavedSec), row.PeerMB, row.P2PGain)
		}
	}
	return out
}

// topologyArm runs one solve under the profile and returns the modeled
// ledger time plus the peer-routed byte volume summed over phases.
func topologyArm(cfg Config, a *sparse.CSR, b []float64, prof gpu.Profile, ng int, solve func(*core.Problem) error) (float64, int) {
	ctx := cfg.newContext(ng, prof)
	p, err := core.NewProblem(ctx, a, b, core.KWay, true)
	if err != nil {
		panic(err)
	}
	if err := solve(p); err != nil {
		panic(fmt.Sprintf("bench: topology arm %s ng=%d: %v", prof.Name, ng, err))
	}
	st := ctx.Stats()
	peer := 0
	for _, phase := range st.Phases() {
		peer += st.Phase(phase).BytesPeer
	}
	return st.TotalTime(), peer
}
