package la

import (
	"runtime"
	"sync"
)

// PanelRows is the default row-panel height for the batched tall-skinny
// kernels. Yamazaki et al. round the panel height up to a multiple of 32 to
// align memory access inside each batched DGEMM; we keep the same discipline
// so the padded-stride code path stays exercised.
const PanelRows = 4096

// roundUp32 rounds n up to the next multiple of 32.
func roundUp32(n int) int { return (n + 31) &^ 31 }

// numWorkers returns the worker count for an n-row tall-skinny kernel:
// enough panels to keep the cores busy without oversubscribing tiny inputs.
func numWorkers(rows, panel int) int {
	w := (rows + panel - 1) / panel
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	if w < 1 {
		w = 1
	}
	return w
}

// BatchedGram computes the Gram matrix C := A'*A for a tall-skinny A using
// the batched-GEMM strategy of the paper (Section V-F): A is split into
// row panels of height h (rounded up to a multiple of 32), each panel's
// small Gram matrix is computed independently in parallel, and the partial
// results are summed. C must be A.Cols x A.Cols.
func BatchedGram(a *Dense, c *Dense) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic("la: BatchedGram shape mismatch")
	}
	h := roundUp32(PanelRows)
	npanels := (a.Rows + h - 1) / h
	if npanels <= 1 {
		Syrk(a, c)
		return
	}
	workers := numWorkers(a.Rows, h)
	partials := make([]*Dense, npanels)
	var wg sync.WaitGroup
	panelCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range panelCh {
				i0 := p * h
				i1 := i0 + h
				if i1 > a.Rows {
					i1 = a.Rows
				}
				part := NewDense(n, n)
				Syrk(a.RowView(i0, i1), part)
				partials[p] = part
			}
		}()
	}
	for p := 0; p < npanels; p++ {
		panelCh <- p
	}
	close(panelCh)
	wg.Wait()
	c.Zero()
	for _, part := range partials {
		for j := 0; j < n; j++ {
			Axpy(1, part.Col(j), c.Col(j))
		}
	}
}

// BatchedGemmTN computes C := A'*B for tall-skinny A (k x m) and B (k x n)
// by row panels in parallel with a final reduction, the same schedule as
// BatchedGram but for two distinct operands (used by block
// orthogonalization, R := V_prev' V_new).
func BatchedGemmTN(a, b *Dense, c *Dense) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("la: BatchedGemmTN shape mismatch")
	}
	h := roundUp32(PanelRows)
	npanels := (a.Rows + h - 1) / h
	if npanels <= 1 {
		GemmTN(1, a, b, 0, c)
		return
	}
	workers := numWorkers(a.Rows, h)
	partials := make([]*Dense, npanels)
	var wg sync.WaitGroup
	panelCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range panelCh {
				i0 := p * h
				i1 := i0 + h
				if i1 > a.Rows {
					i1 = a.Rows
				}
				part := NewDense(c.Rows, c.Cols)
				GemmTN(1, a.RowView(i0, i1), b.RowView(i0, i1), 0, part)
				partials[p] = part
			}
		}()
	}
	for p := 0; p < npanels; p++ {
		panelCh <- p
	}
	close(panelCh)
	wg.Wait()
	c.Zero()
	for _, part := range partials {
		for j := 0; j < c.Cols; j++ {
			Axpy(1, part.Col(j), c.Col(j))
		}
	}
}

// GramF32 computes the Gram matrix C := A'*A with single-precision
// accumulation, emulating the mixed-precision orthogonalization kernel of
// Yamazaki et al. (VECPAR 2014): inputs are rounded to float32, dot
// products accumulate in float32, and the result is widened back. The
// roundoff floor is eps_32 ~ 6e-8 instead of eps_64.
func GramF32(a *Dense, c *Dense) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic("la: GramF32 shape mismatch")
	}
	// Panel-parallel like BatchedGram, with float32 partial sums.
	h := roundUp32(PanelRows)
	npanels := (a.Rows + h - 1) / h
	partials := make([][]float32, npanels)
	workers := numWorkers(a.Rows, h)
	var wg sync.WaitGroup
	panelCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range panelCh {
				i0 := p * h
				i1 := i0 + h
				if i1 > a.Rows {
					i1 = a.Rows
				}
				sums := make([]float32, n*n)
				for j := 0; j < n; j++ {
					cj := a.Col(j)[i0:i1]
					for i := 0; i <= j; i++ {
						ci := a.Col(i)[i0:i1]
						var s float32
						for k := range cj {
							s += float32(ci[k]) * float32(cj[k])
						}
						sums[j*n+i] = s
					}
				}
				partials[p] = sums
			}
		}()
	}
	for p := 0; p < npanels; p++ {
		panelCh <- p
	}
	close(panelCh)
	wg.Wait()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			var s float32
			for _, part := range partials {
				s += part[j*n+i]
			}
			c.Set(i, j, float64(s))
			c.Set(j, i, float64(s))
		}
	}
}

// ParallelGemvT computes y := A'*x for tall-skinny A with one goroutine
// per block of columns, reproducing the optimized MAGMA DGEMV of the paper
// where each thread block owns the dot product of one column with x.
func ParallelGemvT(a *Dense, x []float64, y []float64) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic("la: ParallelGemvT shape mismatch")
	}
	cols := a.Cols
	workers := runtime.GOMAXPROCS(0)
	if workers > cols {
		workers = cols
	}
	if workers <= 1 || a.Rows*cols < 1<<15 {
		GemvT(1, a, x, 0, y)
		return
	}
	var wg sync.WaitGroup
	chunk := (cols + workers - 1) / workers
	for w := 0; w < workers; w++ {
		j0 := w * chunk
		if j0 >= cols {
			break
		}
		j1 := j0 + chunk
		if j1 > cols {
			j1 = cols
		}
		wg.Add(1)
		go func(j0, j1 int) {
			defer wg.Done()
			gemvTCols(1, a, j0, j1, x, 0, y)
		}(j0, j1)
	}
	wg.Wait()
}

// ParallelGemmNN computes C := A*B for tall-skinny A (m x k) and small B
// (k x n) by splitting A and C into row panels. This is the update kernel
// V := V - V_prev*R and the Q-assembly kernel of CAQR.
func ParallelGemmNN(alpha float64, a, b *Dense, beta float64, c *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("la: ParallelGemmNN shape mismatch")
	}
	h := roundUp32(PanelRows)
	npanels := (a.Rows + h - 1) / h
	if npanels <= 1 {
		GemmNN(alpha, a, b, beta, c)
		return
	}
	workers := numWorkers(a.Rows, h)
	var wg sync.WaitGroup
	panelCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range panelCh {
				i0 := p * h
				i1 := i0 + h
				if i1 > a.Rows {
					i1 = a.Rows
				}
				GemmNN(alpha, a.RowView(i0, i1), b, beta, c.RowView(i0, i1))
			}
		}()
	}
	for p := 0; p < npanels; p++ {
		panelCh <- p
	}
	close(panelCh)
	wg.Wait()
}
