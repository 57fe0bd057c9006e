package gpu

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenCompare checks got against the named golden file, rewriting it
// under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestStatsStringGolden(t *testing.T) {
	// A fixed workload on the fixed M2090 model: the rendered table is
	// fully deterministic, so any drift in the report format (or in the
	// cost constants it summarizes) must be a conscious golden update.
	ctx := NewContext(3, M2090())
	ctx.Gather("mpk", 512, Elem64)
	ctx.Broadcast("mpk", 1024, Elem64)
	ctx.Launch("spmv", every(Work{Flops: 2e8, Bytes: 1.5e9}))
	ctx.Gather("tsqr", 930, Elem64)
	ctx.Launch("tsqr", every(Work{Flops: 5.4e8, Bytes: 2.4e8}))
	ctx.HostComputeOn("lsq", 1.86e6)
	goldenCompare(t, "stats_string.golden", ctx.Stats().String())
}
