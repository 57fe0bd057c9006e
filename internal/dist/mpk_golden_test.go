package dist

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/matgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestMPKWindowGolden pins what an MPK window and a distributed SpMV put
// on the ledger and in the basis: every charge of two consecutive windows
// (phase, kind, per-device seconds and bytes, from the event trace), both
// clocks, and a hash of the bits of every generated column and of B̂.
// The arms cover the three bases, overlap off and on, full and narrow
// precision, and a host-hub and a peer-to-peer machine, on 3 devices. A
// change to when the kernel's work runs must reproduce this file without
// -update.
func TestMPKWindowGolden(t *testing.T) {
	const ng, s = 3, 5
	a := matgen.Laplace3D(10, 10, 10, 0.3)
	l := Uniform(a.Rows, ng)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = math.Sin(float64(i+1)) / float64(1+i%7)
	}
	switchProf := gpu.M2090()
	switchProf.Topo = gpu.Topology{Kind: gpu.TopoPCIeSwitch, PeerLatency: 5e-6, PeerBandwidth: 22e9}
	machines := []gpu.Profile{gpu.M2090(), switchProf}
	bases := []struct {
		name   string
		shifts []complex128
	}{
		{"monomial", nil},
		{"newton-real", []complex128{0.5, 1.5, -0.25, 2, 3}},
		{"newton-pair", []complex128{1.5, complex(2, 3), complex(2, -3), -0.5, 0.75}},
	}
	widths := [][2]gpu.Elem{{gpu.Elem64, gpu.Elem64}, {gpu.Elem32, gpu.ElemBF16}}

	var b strings.Builder
	arm := func(title string, p gpu.Profile, overlap bool, run func(ctx *gpu.Context, m *Matrix, v *Vectors)) {
		ctx := gpu.NewContext(ng, p)
		ctx.SetOverlap(overlap)
		m := Distribute(ctx, a, l, s)
		v := NewVectors(ctx, l, 2*s+1)
		v.SetColFromHost(0, x)
		ctx.ResetStats()
		ctx.Stats().EnableTrace(1 << 12)
		fmt.Fprintf(&b, "=== %s %s overlap=%v ===\n", title, p.Topo.Kind, overlap)
		run(ctx, m, v)
		writeCharges(&b, ctx.Stats().Trace())
		fmt.Fprintf(&b, "clock serial=%s overlapped=%s\n", fmtSec(ctx.SerialTime()), fmtSec(ctx.OverlappedTime()))
		fmt.Fprintf(&b, "columns %016x\n", hashCols(v))
	}
	for _, p := range machines {
		for _, overlap := range []bool{false, true} {
			for _, basis := range bases {
				for _, w := range widths {
					title := fmt.Sprintf("generate %s %v/%v", basis.name, w[0], w[1])
					arm(title, p, overlap, func(ctx *gpu.Context, m *Matrix, v *Vectors) {
						k := NewMPK(m)
						k.SetPrecision(w[0], w[1])
						// Two windows back to back: the second starts from
						// the first one's last column and alternates the
						// staging buffer.
						for _, j0 := range []int{0, s} {
							fmt.Fprintf(&b, "bhat %016x\n", hashDense(k.Generate(v, j0, s, basis.shifts, "mpk")))
						}
					})
				}
			}
			arm("spmv", p, overlap, func(ctx *gpu.Context, m *Matrix, v *Vectors) {
				k := NewMPK(m)
				k.SpMV(v, 0, v, 1, "spmv")
				k.SpMV(v, 1, v, 2, "spmv")
			})
		}
	}
	goldenCompare(t, "mpk_window.golden", b.String())
}

// writeCharges prints one line per ledger charge: the trace events of one
// charge share a Step, and a kernel's carry one entry per device.
func writeCharges(b *strings.Builder, ev []gpu.Event) {
	for i := 0; i < len(ev); {
		j := i
		fmt.Fprintf(b, "%s %s", ev[i].Phase, ev[i].Kind)
		for ; j < len(ev) && ev[j].Step == ev[i].Step; j++ {
			fmt.Fprintf(b, " d%d:%s/%d", ev[j].Device, fmtSec(ev[j].Time), ev[j].Bytes)
		}
		b.WriteByte('\n')
		i = j
	}
}

func fmtSec(t float64) string { return strconv.FormatFloat(t, 'g', -1, 64) }

// hashCols hashes the bits of every column of v on every device.
func hashCols(v *Vectors) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for d := range v.Local {
		for j := 0; j < v.Cols; j++ {
			for _, x := range v.Local[d].Col(j) {
				u := math.Float64bits(x)
				for i := range buf {
					buf[i] = byte(u >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// hashDense hashes the bits of every entry of a.
func hashDense(a *la.Dense) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			u := math.Float64bits(a.At(i, j))
			for k := range buf {
				buf[k] = byte(u >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

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
