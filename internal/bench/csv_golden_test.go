package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenConfig is the configuration the committed figure CSVs were
// recorded at: experiments -fig all -scale 0.005 -restarts 6 -csv DIR.
func goldenConfig() Config {
	return Config{Scale: 0.005, MaxDevices: 3, MaxRestarts: 6}
}

func writeCSVString(t *testing.T, rows any) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := WriteCSV(path, rows); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFiguresGolden rebuilds every CSV of every registered figure and
// compares it byte for byte with testdata/figs (-update rewrites them).
// The figures are pure functions of the cost model and the generators'
// seeds, so any drift is a change to arithmetic, the ledger or the CSV
// encoding.
func TestFiguresGolden(t *testing.T) {
	for _, fig := range Figures {
		t.Run(fig.Name, func(t *testing.T) {
			t.Parallel()
			for _, tab := range fig.Run(goldenConfig()) {
				path := filepath.Join("testdata", "figs", tab.Name+".csv")
				if *updateGolden {
					if err := WriteCSV(path, tab.Rows); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (rerun with -update): %v", err)
				}
				if got := writeCSVString(t, tab.Rows); !bytes.Equal(got, want) {
					t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			}
		})
	}
}

func TestWriteCSVRejectsNonSlice(t *testing.T) {
	if err := WriteCSV(filepath.Join(t.TempDir(), "x.csv"), 42); err == nil {
		t.Fatal("WriteCSV accepted a non-slice")
	}
}

func TestWriteCSVEmptySlice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := WriteCSV(path, []fig11Kernel{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 0 {
		t.Fatalf("empty slice wrote %q", b)
	}
}

// TestWriteCSVReportsFullDisk: the rows sit in the CSV writer's buffer
// until the flush, so a full disk shows only there; WriteCSV must return
// that error rather than leave a truncated file behind a nil.
func TestWriteCSVReportsFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	rows := []fig8Row{{Matrix: "m", S: 1, CommTime: 0.5, ComputeTime: 0.25}}
	if err := WriteCSV("/dev/full", rows); err == nil {
		t.Fatal("WriteCSV to /dev/full returned nil")
	}
}
