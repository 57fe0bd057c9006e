package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
)

// TestCollectStatsExportsOptionalByteColumns: on an NVLink-ring
// mixed-precision solve the halo traffic never touches the host and part
// of it travels narrow, so the scrape must carry what the ledger's
// optional columns carry — and nothing for the columns the ledger does
// not report (one node: no dir="inter").
func TestCollectStatsExportsOptionalByteColumns(t *testing.T) {
	mat, err := matgen.ByName("G3_circuit", 0.004)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, mat.A.Rows)
	for i := range b {
		b[i] = 1
	}
	ctx := gpu.NewContext(3, gpu.Profile{
		Name:         "ring-test",
		Model:        gpu.M2090().Model,
		Topo:         gpu.Topology{Kind: gpu.TopoNVLinkRing, PeerLatency: 2e-6, PeerBandwidth: 1e11},
		BF16Transfer: true,
	})
	ctx.Stats().EnableTrace(1 << 16)
	p, err := core.NewProblem(ctx, mat.A, b, core.KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CAGMRES(p, core.Options{M: 30, S: 10, Tol: 1e-4, MaxRestarts: 400, Ortho: "CholQR", Precision: core.PrecisionMixed})
	if err != nil || !res.Converged {
		t.Fatalf("solve: %v (result %+v)", err, res)
	}
	mpk := res.Stats.Phase(core.PhaseMPK)
	if mpk.BytesPeer == 0 || mpk.BytesFP32+mpk.BytesCompressed == 0 {
		t.Fatalf("the solve moved no peer or narrow bytes: %+v", mpk)
	}

	r := obs.NewRegistry()
	obs.CollectStats(r, res.Stats)
	obs.ObserveTrace(r, res.Stats.Trace())
	counter := func(family string, labels ...string) float64 {
		return r.CounterL(family, "", obs.L(append([]string{"phase", core.PhaseMPK}, labels...)...)).Value()
	}
	if got := counter("gpu_phase_bytes_total", "dir", "p2p"); got != float64(mpk.BytesPeer) {
		t.Errorf("mpk p2p bytes %v, ledger %d", got, mpk.BytesPeer)
	}
	if got := counter("gpu_phase_width_bytes_total", "width", "fp32"); got != float64(mpk.BytesFP32) {
		t.Errorf("mpk fp32 bytes %v, ledger %d", got, mpk.BytesFP32)
	}
	if got := counter("gpu_phase_width_bytes_total", "width", "bf16"); got != float64(mpk.BytesCompressed) {
		t.Errorf("mpk bf16 bytes %v, ledger %d", got, mpk.BytesCompressed)
	}
	peerRounds, peerBytes := 0, 0
	for _, e := range res.Stats.Trace() {
		if e.Kind == "peer" {
			peerRounds++
			peerBytes += e.Bytes
		}
	}
	h := r.HistogramL("gpu_transfer_bytes", "", nil, obs.L("dir", "p2p"))
	if peerRounds == 0 || h.Count() != uint64(peerRounds) || h.Sum() != float64(peerBytes) {
		t.Errorf("p2p transfer histogram: count %d sum %v, trace has %d rounds of %d bytes", h.Count(), h.Sum(), peerRounds, peerBytes)
	}
	scrape := prometheus(t, r)
	if strings.Contains(scrape, `dir="inter"`) {
		t.Error("a one-node ledger exported an inter-node series")
	}

	// The paper's machine reports none of the optional columns, so its
	// scrape has none of the series.
	host := gpu.NewContext(2, gpu.M2090())
	host.HaloExchangeElemOn("orth", []int{4096, 8192}, []int{1024, 1024}, nil, gpu.Elem64)
	r = obs.NewRegistry()
	obs.CollectStats(r, host.Stats())
	scrape = prometheus(t, r)
	for _, series := range []string{`dir="p2p"`, `dir="inter"`, "gpu_phase_width_bytes_total"} {
		if strings.Contains(scrape, series) {
			t.Errorf("host-routed FP64 scrape contains %s", series)
		}
	}
}

func prometheus(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(buf.Bytes()); err != nil {
		t.Fatalf("lint: %v", err)
	}
	return buf.String()
}
