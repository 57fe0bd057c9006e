// Command matinfo inspects a sparse matrix the way Section IV of the
// paper does: bandwidth under the natural and RCM orderings, partition
// quality (edge cut, balance) of the k-way partitioner, and the matrix
// powers kernel's surface-to-volume ratio and communication volume over a
// sweep of s — the per-matrix numbers behind Figures 6 and 7.
//
// Example:
//
//	matinfo -matrix cant -scale 0.05 -devices 3 -smax 10
package main

import (
	"flag"
	"fmt"
	"os"

	"cagmres/internal/core"
	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/graph"
	"cagmres/internal/matgen"
)

func main() {
	matrix := flag.String("matrix", "cant", "built-in matrix: cant, G3_circuit, dielFilterV2real, nlpkkt120")
	file := flag.String("file", "", "MatrixMarket file (overrides -matrix)")
	scale := flag.Float64("scale", 0.02, "built-in matrix scale")
	devices := flag.Int("devices", 3, "device count for partition analysis")
	smax := flag.Int("smax", 10, "largest MPK depth to analyze")
	flag.Parse()
	if *devices < 1 {
		fatal(fmt.Errorf("-devices %d: need at least 1", *devices))
	}

	a, name, err := matgen.Load(*file, *matrix, *scale)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("matrix %s: n=%d nnz=%d (%.1f per row)\n", name, a.Rows, a.NNZ(),
		float64(a.NNZ())/float64(a.Rows))

	g := graph.FromMatrix(a)
	fmt.Printf("graph: %d edges, natural bandwidth %d\n", g.NumEdges(), graph.Bandwidth(g))
	rcm := graph.RCM(g)
	fmt.Printf("RCM bandwidth: %d\n", graph.PermutedBandwidth(g, rcm))

	part := graph.KWay(g, *devices, 1)
	fmt.Printf("k-way partition (%d parts): edge cut %d, imbalance %.3f, sizes %v\n",
		*devices, graph.EdgeCut(g, part), part.Imbalance(), part.Sizes())

	ctx := gpu.NewContext(*devices, gpu.M2090())
	for _, ord := range []struct {
		label string
		core.Ordering
	}{{"NAT", core.Natural}, {"RCM", core.RCM}, {"KWY", core.KWay}} {
		p, err := core.Prepare(ctx, a, ord.Ordering, false)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nordering %s — MPK overhead sweep:\n", ord.label)
		fmt.Printf("%4s %14s %14s %14s %14s\n", "s", "max surf/vol", "halo elems", "gather", "scatter")
		for s := 1; s <= *smax; s++ {
			dm := dist.Distribute(ctx, p.A, p.Layout, s)
			an := dist.Analyze(dm)
			halo := 0
			for _, h := range an.HaloSize {
				if h > halo {
					halo = h
				}
			}
			fmt.Printf("%4d %14.4f %14d %14d %14d\n",
				s, an.MaxSurfaceToVolume(), halo, an.GatherVolume, an.ScatterVolume)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matinfo:", err)
	os.Exit(1)
}
