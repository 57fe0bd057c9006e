package bench

import (
	"fmt"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/profile"
	"cagmres/internal/sparse"
)

// clusterRow is one configuration of the multi-node scaling study:
// standard GMRES and CA-GMRES on a federation of simulated nodes joined
// by an inter-node fabric, with the two-tier ledger splitting the
// traffic.
type clusterRow struct {
	Matrix string
	// Mode is which sweep the row belongs to: "ratio" (inter/intra
	// latency ratio swept at fixed membership), "strong" (fixed problem,
	// node count swept), or "weak" (problem grows with the node count).
	Mode   string
	Fabric string
	// Nodes × DevicesPerNode = Ng total simulated GPUs.
	Nodes          int
	DevicesPerNode int
	Ng             int
	// LatencyRatio is fabric latency over the node-local peer latency —
	// the knob the paper's trade-off re-prices: how much more an
	// inter-node exchange costs than an intra-node one.
	LatencyRatio float64
	// GMRESSec / CASec are the modeled solve times of the two solvers.
	GMRESSec float64
	CASec    float64
	// CAAdvantage is GMRESSec / CASec, the paper's headline ratio.
	CAAdvantage float64
	// CASavedSec is GMRESSec - CASec: the absolute time communication
	// avoidance buys. On a cluster this GROWS with the latency ratio —
	// the mirror image of the single-node topology study, where fatter
	// links shrink the saving. The slower the fabric between nodes, the
	// more each avoided exchange is worth.
	CASavedSec float64
	// InterMB is the CA solve's inter-node traffic (the fabric-tier
	// ledger column) in MB.
	InterMB float64
}

// clusterNodeCounts is the membership sweep: powers of two to the
// 64-node federation the study scales to.
var clusterNodeCounts = []int{1, 2, 4, 8, 16, 32, 64}

// clusterRatios is the inter/intra latency ratio sweep, at fixed fabric
// bandwidth so the ratio is the only thing moving between rows.
var clusterRatios = []float64{1, 2, 4, 8, 16}

// figCluster is the multi-node scaling study the cluster tier exists
// for: the paper's G3_circuit configuration on federations of 2-GPU
// nodes (PCIe-switch inside the node, a lossy fabric between nodes),
// swept three ways. The ratio sweep holds the membership fixed and
// sweeps the inter/intra latency ratio 1..16× at fixed fabric
// bandwidth: the absolute time CA-GMRES saves over GMRES must grow
// monotonically with the ratio, because CA's whole trade — fewer,
// bigger exchanges — is priced in exchanges, and the fabric makes every
// exchange dearer. The strong sweep fixes the problem and scales the
// federation to 64 nodes on a named fabric; the weak sweep grows the
// problem with the node count. Arithmetic is identical in every cell
// (cross-profile bit-identity); only the machine description moves.
func figCluster(cfg Config) []clusterRow {
	cfg.defaults()
	const (
		devicesPerNode = 2
		s              = 10
		intraLat       = 5e-6 // node-local PCIe-switch peer latency
		intraBW        = 22e9 // node-local peer bandwidth
		fabricBW       = 12e9 // fixed fabric bandwidth for the ratio sweep
	)
	base := profile.A100PCIe()
	base.Topo = gpu.Topology{Kind: gpu.TopoPCIeSwitch, PeerLatency: intraLat, PeerBandwidth: intraBW}

	mtx := benchG3(cfg.Scale)
	b := onesRHS(mtx.A.Rows)

	cfg.printf("Cluster study: GMRES(30) vs CA-GMRES(%d,30) on %s, %d-GPU nodes, two-tier interconnect (modeled ms)\n",
		s, mtx.Name, devicesPerNode)
	cfg.printf("%-7s %-14s %5s %4s %6s %12s %12s %8s %9s %9s\n",
		"mode", "fabric", "nodes", "ng", "ratio", "gmres", "ca", "ca-adv", "ca-saved", "interMB")

	var out []clusterRow
	emit := func(row clusterRow) {
		out = append(out, row)
		cfg.printf("%-7s %-14s %5d %4d %6.1f %12.4f %12.4f %8.3f %9.4f %9.3f\n",
			row.Mode, row.Fabric, row.Nodes, row.Ng, row.LatencyRatio,
			ms(row.GMRESSec), ms(row.CASec), row.CAAdvantage, row.CASavedSec*1e3, row.InterMB)
	}

	// Ratio sweep: at each federation size, the fabric latency walks away
	// from the intra-node latency while everything else stays put.
	for _, nodes := range []int{2, 8, 64} {
		for _, ratio := range clusterRatios {
			fab := gpu.Fabric{Kind: gpu.FabricIBHDR, Latency: ratio * intraLat, Bandwidth: fabricBW}
			name := fmt.Sprintf("ratio-%gx", ratio)
			emit(clusterPoint(cfg, mtx.A, b, base, "ratio", name, nodes, devicesPerNode, s, fab, intraLat))
		}
	}

	// Strong scaling on shipped fabrics: fixed problem, membership swept
	// to 64 nodes on the fastest and slowest fabrics in the catalog.
	for _, fabName := range []string{"ib-hdr", "ethernet-25g"} {
		fab, err := profile.FabricByName(fabName)
		if err != nil {
			panic(err)
		}
		for _, nodes := range clusterNodeCounts {
			emit(clusterPoint(cfg, mtx.A, b, base, "strong", fabName, nodes, devicesPerNode, s, fab, intraLat))
		}
	}

	// Weak scaling: the problem grows with the federation, so each node
	// keeps a constant share. Normalized to the strong problem at 8 nodes.
	fab, err := profile.FabricByName("ib-hdr")
	if err != nil {
		panic(err)
	}
	for _, nodes := range clusterNodeCounts {
		wm := benchG3(cfg.Scale * float64(nodes) / 8)
		wb := onesRHS(wm.A.Rows)
		emit(clusterPoint(cfg, wm.A, wb, base, "weak", "ib-hdr", nodes, devicesPerNode, s, fab, intraLat))
	}
	return out
}

// clusterPoint runs the GMRES and CA-GMRES arms on one federation
// configuration and fills a row.
func clusterPoint(cfg Config, a *sparse.CSR, b []float64, base gpu.Profile,
	mode, fabName string, nodes, devicesPerNode, s int, fab gpu.Fabric, intraLat float64) clusterRow {
	prof := base
	if nodes > 1 {
		var err error
		prof, err = profile.WithCluster(base, devicesPerNode, fab)
		if err != nil {
			panic(fmt.Sprintf("bench: cluster profile %s: %v", fabName, err))
		}
	}
	ng := nodes * devicesPerNode
	row := clusterRow{
		Matrix: "G3_circuit", Mode: mode, Fabric: fabName,
		Nodes: nodes, DevicesPerNode: devicesPerNode, Ng: ng,
		LatencyRatio: fab.Latency / intraLat,
	}
	row.GMRESSec, _ = clusterArm(cfg, a, b, prof, ng, func(p *core.Problem) error {
		_, err := core.GMRES(p, core.Options{M: 30, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CGS"})
		return err
	})
	var interBytes int
	row.CASec, interBytes = clusterArm(cfg, a, b, prof, ng, func(p *core.Problem) error {
		_, err := core.CAGMRES(p, core.Options{M: 30, S: s, Tol: 1e-4, MaxRestarts: cfg.MaxRestarts, Ortho: "CholQR", Precision: cfg.Precision})
		return err
	})
	row.InterMB = float64(interBytes) / 1e6
	row.CASavedSec = row.GMRESSec - row.CASec
	if row.CASec > 0 {
		row.CAAdvantage = row.GMRESSec / row.CASec
	}
	return row
}

// clusterArm runs one solve under the clustered profile and returns the
// modeled ledger time plus the fabric-tier byte volume summed over
// phases.
func clusterArm(cfg Config, a *sparse.CSR, b []float64, prof gpu.Profile, ng int, solve func(*core.Problem) error) (float64, int) {
	ctx := cfg.newContext(ng, prof)
	p, err := core.NewProblem(ctx, a, b, core.KWay, true)
	if err != nil {
		panic(err)
	}
	if err := solve(p); err != nil {
		panic(fmt.Sprintf("bench: cluster arm %s ng=%d: %v", prof.Name, ng, err))
	}
	st := ctx.Stats()
	inter := 0
	for _, phase := range st.Phases() {
		inter += st.Phase(phase).BytesInterNode
	}
	return st.TotalTime(), inter
}
