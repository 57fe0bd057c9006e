package core

import (
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/profile"
)

// These tests pin the central contract of the machine-profile layer:
// profiles reorder modeled time, never arithmetic. A solve under any
// profile — any topology, overlap on or off, faults armed or not — must
// produce bit-identical iterates, convergence histories and iteration
// counts; only the ledger's seconds may differ.

// invariantProfiles is the cross-product the invariance tests sweep:
// every shipped profile plus the counterfactual rewirings of the
// topology study.
func invariantProfiles(t *testing.T) []gpu.Profile {
	t.Helper()
	var ps []gpu.Profile
	for _, name := range profile.Names() {
		p, err := profile.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, kind := range []gpu.TopoKind{gpu.TopoPCIeSwitch, gpu.TopoNVLinkRing, gpu.TopoAllToAll} {
		p, err := profile.WithTopology(profile.A100PCIe(), kind)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

type invariantRun struct {
	x, history []float64
	iters      int
	restarts   int
	converged  bool
}

func runUnderProfile(t *testing.T, p gpu.Profile, overlap bool, fp *gpu.FaultPlan) invariantRun {
	t.Helper()
	a := laplace2D(24, 24, 0.4)
	b := randomRHS(576, 3)
	ctx := gpu.NewContext(3, p)
	prob, err := NewProblem(ctx, a, b, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	if fp != nil {
		ctx.InjectFaults(*fp)
	}
	res, err := CAGMRES(prob, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Overlap: overlap})
	if err != nil {
		t.Fatalf("profile %s: %v", p.Name, err)
	}
	return invariantRun{x: res.X, history: res.History, iters: res.Iters,
		restarts: res.Restarts, converged: res.Converged}
}

func assertIdentical(t *testing.T, name string, want, got invariantRun) {
	t.Helper()
	if got.iters != want.iters || got.restarts != want.restarts || got.converged != want.converged {
		t.Errorf("%s: counters diverged: iters %d/%d restarts %d/%d converged %v/%v",
			name, got.iters, want.iters, got.restarts, want.restarts, got.converged, want.converged)
	}
	if len(got.history) != len(want.history) {
		t.Fatalf("%s: history length %d != %d", name, len(got.history), len(want.history))
	}
	for i := range want.history {
		if got.history[i] != want.history[i] {
			t.Fatalf("%s: history[%d] = %x != %x — profiles changed arithmetic", name, i, got.history[i], want.history[i])
		}
	}
	for i := range want.x {
		if got.x[i] != want.x[i] {
			t.Fatalf("%s: x[%d] = %x != %x — profiles changed arithmetic", name, i, got.x[i], want.x[i])
		}
	}
}

func TestProfileInvariance(t *testing.T) {
	base := runUnderProfile(t, gpu.M2090(), false, nil)
	if !base.converged {
		t.Fatal("baseline solve did not converge")
	}
	for _, p := range invariantProfiles(t) {
		assertIdentical(t, p.Name, base, runUnderProfile(t, p, false, nil))
	}
}

func TestProfileInvarianceOverlap(t *testing.T) {
	base := runUnderProfile(t, gpu.M2090(), true, nil)
	for _, p := range invariantProfiles(t) {
		assertIdentical(t, p.Name+"/overlap", base, runUnderProfile(t, p, true, nil))
	}
	// Overlap itself must not change arithmetic either.
	assertIdentical(t, "sync-vs-overlap", runUnderProfile(t, gpu.M2090(), false, nil), base)
}

// TestProfileInvarianceFaults arms the same seeded fault plan under
// every profile: a device death at virtual time zero (which trips at
// the first ledger charge — the same program point regardless of the
// profile's clock) plus program-order transfer faults and a straggler.
// The healed solves must agree bit-for-bit.
func TestProfileInvarianceFaults(t *testing.T) {
	plan := &gpu.FaultPlan{
		Seed:              11,
		Deaths:            []gpu.DeviceDeath{{Device: 1, At: 0}},
		TransferFaultProb: 0.05,
		MaxTransferFaults: 4,
		Stragglers:        []gpu.Straggler{{Device: 0, Factor: 1.5}},
	}
	base := runUnderProfile(t, gpu.M2090(), false, plan)
	for _, p := range invariantProfiles(t) {
		assertIdentical(t, p.Name+"/faults", base, runUnderProfile(t, p, false, plan))
	}
	for _, p := range invariantProfiles(t) {
		assertIdentical(t, p.Name+"/faults+overlap", base, runUnderProfile(t, p, true, plan))
	}
}

// TestOptionsProfilePlumbing: selecting a profile through core.Options
// re-targets the context and still changes no arithmetic.
func TestOptionsProfilePlumbing(t *testing.T) {
	a := laplace2D(24, 24, 0.4)
	b := randomRHS(576, 3)
	ctx := gpu.NewContext(3, gpu.M2090())
	prob, err := NewProblem(ctx, a, b, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	h100 := profile.H100NVLink()
	res, err := CAGMRES(prob, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Profile: &h100})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Profile().Name; got != "h100-nvlink" {
		t.Errorf("Options.Profile not applied: context carries %q", got)
	}
	if ctx.Stats().Phase("mpk").BytesPeer == 0 {
		t.Error("peer-to-peer topology shipped no peer bytes in the mpk phase")
	}
	base := runUnderProfile(t, gpu.M2090(), false, nil)
	assertIdentical(t, "options-profile", base, invariantRun{x: res.X, history: res.History,
		iters: res.Iters, restarts: res.Restarts, converged: res.Converged})
}
