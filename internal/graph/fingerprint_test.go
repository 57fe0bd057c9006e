package graph

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/preparation.golden")

// hashInts feeds xs to h as little-endian 64-bit integers, so the
// fingerprint does not depend on the width the code stores them in.
func hashInts[T ~int | ~int32](h hash.Hash64, xs []T) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
}

// fnvOf is the FNV-64a hash of the integer slices, in order.
func fnvOf[T ~int | ~int32](parts ...[]T) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		hashInts(h, p)
	}
	return h.Sum64()
}

// TestPreparationFingerprints pins every bit of what the preparation
// layer derives from the benchmark's matrices: the graph FromMatrix
// builds, the RCM ordering, and the k-way partition and its block order
// at k = 2..4 under three seeds. The partitioner and the graph build may
// change how they search and what width they store, never what they
// return; a change that moves one vertex shows as a diff of this file,
// which is rewritten only by -update.
func TestPreparationFingerprints(t *testing.T) {
	type input struct {
		name string
		a    *sparse.CSR
	}
	var inputs []input
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
		m, err := matgen.ByName(c.name, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("%s@%g", c.name, c.scale), m.A})
	}
	inputs = append(inputs, input{"Laplace2D(64,64,0.3)", matgen.Laplace2D(64, 64, 0.3)})

	var got strings.Builder
	for _, in := range inputs {
		g := FromMatrix(in.a)
		fmt.Fprintf(&got, "%s graph n=%d edges=%d ptr=%016x adj=%016x\n",
			in.name, g.N, g.NumEdges(), fnvOf(g.Ptr), fnvOf(g.Adj))
		fmt.Fprintf(&got, "%s rcm %016x\n", in.name, fnvOf(RCM(g)))
		for k := 2; k <= 4; k++ {
			for _, seed := range []int64{1, 2, 7} {
				p := KWay(g, k, seed)
				perm, bounds := p.Order()
				fmt.Fprintf(&got, "%s kway k=%d seed=%d part=%016x order=%016x bounds=%v\n",
					in.name, k, seed, fnvOf(p.Part), fnvOf(perm, bounds), bounds)
			}
		}
	}

	path := filepath.Join("testdata", "preparation.golden")
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
		t.Fatalf("preparation fingerprints moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
