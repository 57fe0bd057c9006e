package la

// Cache-tiled GEMM fallback.
//
// The column-sweep GemmNN streams all of A once per column of B; for the
// squarish host-side products (basis assembly in matgen, reference
// checks, the host fallback when no accelerator library is present) that
// wastes memory bandwidth badly. The tiled kernel below walks C in row
// blocks and tiles the k dimension inside each block, so a tile of A
// stays cache-resident while every column of B is applied to it.
//
// Bit-exactness contract: for every element c[i,j] the tiled kernel
// performs the same floating-point operations in the same order as the
// column-sweep path (beta fused into the first contributing update,
// k-ascending accumulation, zero coefficients skipped), so dispatching on
// size never changes results — only wall-clock time.

const (
	// gemmTileMin is the dispatch threshold: the tiled path runs only
	// when all three dimensions reach it. Below that, the tall-skinny
	// column-sweep kernel wins.
	gemmTileMin = 64
	// gemmTileRows x gemmTileK doubles is the A-tile kept hot while all
	// columns of B stream past: 128*64*8 = 64 KiB, half a typical L2.
	gemmTileRows = 128
	gemmTileK    = 64
)

// gemmNNTiled computes C := alpha*A*B + beta*C, bit-identical to the
// column-sweep GemmNN (see the exactness contract above). Row blocks of
// C are done one after another; inside a block the k dimension is tiled
// so the A tile is reused across every column of B before being evicted.
func gemmNNTiled(alpha float64, a, b *Dense, beta float64, c *Dense) {
	m, k, n := a.Rows, a.Cols, b.Cols
	// scaled[j] records whether c[:,j] in the current row block has
	// absorbed its beta scaling (fused into the first nonzero column
	// update, exactly like Gemv).
	scaled := make([]bool, n)
	for i0 := 0; i0 < m; i0 += gemmTileRows {
		i1 := min(i0+gemmTileRows, m)
		for j := range scaled {
			scaled[j] = beta == 1
		}
		for k0 := 0; k0 < k; k0 += gemmTileK {
			k1 := min(k0+gemmTileK, k)
			for j := 0; j < n; j++ {
				scaled[j] = gemvCols(alpha, a, i0, i1, k0, k1, b.Col(j), beta, c.Col(j)[i0:i1], scaled[j])
			}
		}
		for j := 0; j < n; j++ {
			if !scaled[j] {
				scaleOrZero(beta, c.Col(j)[i0:i1])
			}
		}
	}
}
