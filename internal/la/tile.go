package la

import (
	"runtime"
	"sync"
)

// Cache-tiled, worker-parallel GEMM fallbacks.
//
// The column-sweep GemmNN/GemmTN kernels stream all of A once per column
// of B; for the squarish host-side products (basis assembly in matgen,
// reference checks, the host fallback when no accelerator library is
// present) that wastes memory bandwidth badly. The tiled kernels below
// block the operands so a tile of A stays cache-resident while every
// column of B is applied to it, and split the rows of C across workers.
//
// Bit-exactness contract: for every element c[i,j] the tiled kernels
// perform the same floating-point operations in the same order as the
// column-sweep path (beta fused into the first contributing update,
// k-ascending accumulation, zero coefficients skipped), so dispatching on
// size never changes results — only wall-clock time.

const (
	// gemmTileMin is the dispatch threshold: the tiled path runs only
	// when all three dimensions reach it. Below that, the tall-skinny
	// column-sweep kernels win (and the row-panel drivers in parallel.go,
	// whose panels have at most a few dozen columns, never re-enter the
	// worker pool from inside their own workers).
	gemmTileMin = 64
	// gemmTileRows x gemmTileK doubles is the A-tile kept hot while all
	// columns of B stream past: 128*64*8 = 64 KiB, half a typical L2.
	gemmTileRows = 128
	gemmTileK    = 64
)

func minDim3(a, b, c int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

// gemmBlocks partitions n rows into worker block ranges of height at
// least tile, at most ceil(n/workers) rounded up to a tile multiple.
func gemmBlocks(n, tile, workers int) [][2]int {
	per := (n + workers - 1) / workers
	per = ((per + tile - 1) / tile) * tile
	blocks := make([][2]int, 0, workers)
	for i0 := 0; i0 < n; i0 += per {
		i1 := i0 + per
		if i1 > n {
			i1 = n
		}
		blocks = append(blocks, [2]int{i0, i1})
	}
	return blocks
}

// gemmNNTiled computes C := alpha*A*B + beta*C, bit-identical to the
// column-sweep GemmNN (see the exactness contract above). Workers own
// disjoint row blocks of C; inside a block the k dimension is tiled so
// the A tile is reused across every column of B before being evicted.
func gemmNNTiled(alpha float64, a, b *Dense, beta float64, c *Dense) {
	m, k, n := a.Rows, a.Cols, b.Cols
	workers := runtime.GOMAXPROCS(0)
	if max := (m + gemmTileRows - 1) / gemmTileRows; workers > max {
		workers = max
	}
	blocks := gemmBlocks(m, gemmTileRows, workers)
	var wg sync.WaitGroup
	for _, blk := range blocks {
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			// scaled[j] records whether c[:,j] in this row block has
			// absorbed its beta scaling (fused into the first nonzero
			// column update, exactly like Gemv).
			scaled := make([]bool, n)
			if beta == 1 {
				for j := range scaled {
					scaled[j] = true
				}
			}
			for k0 := 0; k0 < k; k0 += gemmTileK {
				k1 := k0 + gemmTileK
				if k1 > k {
					k1 = k
				}
				for j := 0; j < n; j++ {
					scaled[j] = gemvCols(alpha, a, i0, i1, k0, k1, b.Col(j), beta, c.Col(j)[i0:i1], scaled[j])
				}
			}
			for j := 0; j < n; j++ {
				if !scaled[j] {
					scaleOrZero(beta, c.Col(j)[i0:i1])
				}
			}
		}(blk[0], blk[1])
	}
	wg.Wait()
}

// gemmTNTiled computes C := alpha*A'*B + beta*C, bit-identical to the
// dot-sweep GemmTN: each output element is still one full-length Dot, so
// only the parallel decomposition changes. Workers own disjoint column
// blocks of C; within a block each B column being dotted stays
// cache-resident across the whole sweep of A's columns.
func gemmTNTiled(alpha float64, a, b *Dense, beta float64, c *Dense) {
	m, n := a.Cols, b.Cols
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	blocks := gemmBlocks(n, 8, workers)
	var wg sync.WaitGroup
	for _, blk := range blocks {
		wg.Add(1)
		go func(j0, j1 int) {
			defer wg.Done()
			for j := j0; j < j1; j++ {
				gemvTCols(alpha, a, 0, m, b.Col(j), beta, c.Col(j))
			}
		}(blk[0], blk[1])
	}
	wg.Wait()
}
