package bench

import (
	"reflect"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/profile"
)

// TestDriversHonourTheProfile: every context a driver builds, the ones it
// derives from the machine included (Figure 3's CPU reference, the
// latency ablation's scaled arms), comes from Config.Profile. Naming the
// default machine explicitly therefore changes no row, and another
// machine's scaled latency moves both ablation arms.
func TestDriversHonourTheProfile(t *testing.T) {
	base := Config{Scale: 0.003, MaxDevices: 3, MaxRestarts: 4}
	named := base
	named.Profile = gpu.M2090()
	if got, want := fig3(named), fig3(base); !reflect.DeepEqual(got, want) {
		t.Errorf("fig3 on an explicit m2090:\n got %+v\nwant %+v", got, want)
	}
	if got, want := ablationLatency(named), ablationLatency(base); !reflect.DeepEqual(got, want) {
		t.Errorf("ablationLatency on an explicit m2090:\n got %+v\nwant %+v", got, want)
	}
	a100 := base
	a100.Profile = profile.A100PCIe()
	rows := ablationLatency(a100)
	for i := 1; i < len(rows); i++ {
		if rows[i].GMRESPerRes <= rows[i-1].GMRESPerRes {
			t.Errorf("a100-pcie GMRES %g s/restart at latency x%g does not grow past %g at x%g",
				rows[i].GMRESPerRes, rows[i].LatencyScale, rows[i-1].GMRESPerRes, rows[i-1].LatencyScale)
		}
	}
}
