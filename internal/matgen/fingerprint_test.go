package matgen

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cagmres/internal/sparse"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// fingerprint is FNV-64 over the bits of a CSR's RowPtr, ColIdx and Val,
// each as 8 little-endian bytes.
func fingerprint(a *sparse.CSR) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, p := range a.RowPtr {
		word(uint64(p))
	}
	for _, c := range a.ColIdx {
		word(uint64(c))
	}
	for _, v := range a.Val {
		word(math.Float64bits(v))
	}
	return h.Sum64()
}

// TestGeneratorFingerprints pins every bit of the matrices the benchmark
// and the figures build: the four analogues at the benchmark's scales and
// the inline matrix serve-mixed posts. Assembly may change how it sums and
// sorts, never what it returns; a change that moves one bit of a matrix
// shows as a diff of this file, which is rewritten only by -update.
func TestGeneratorFingerprints(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		name  string
		scale float64
	}{
		{"G3_circuit", 0.02},
		{"G3_circuit", 0.05},
		{"dielFilterV2real", 0.004},
		{"cant", 0.05},
		{"nlpkkt120", 0.01},
	} {
		m, err := ByName(c.name, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s@%g %d %d %016x\n", c.name, c.scale, m.A.Rows, m.A.NNZ(), fingerprint(m.A))
	}
	a := Laplace2D(64, 64, 0.3)
	fmt.Fprintf(&got, "Laplace2D(64,64,0.3) %d %d %016x\n", a.Rows, a.NNZ(), fingerprint(a))

	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("generator fingerprints moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// BenchmarkByName times the generators at the benchmark's three matrix
// shapes: G3_circuit@0.05 (ca-sparse-cold), G3_circuit@0.02 (serve-mixed's
// keys) and dielFilterV2real@0.004 (the dense-row workloads).
func BenchmarkByName(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{
		{"G3_circuit", 0.05},
		{"G3_circuit", 0.02},
		{"dielFilterV2real", 0.004},
	} {
		b.Run(fmt.Sprintf("%s-%g", c.name, c.scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ByName(c.name, c.scale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
