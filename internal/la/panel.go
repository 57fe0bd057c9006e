package la

// PanelRows is the row-panel height of the batched tall-skinny kernels.
// Yamazaki et al. size each batched DGEMM's panel to a multiple of 32 to
// align memory access; this one is.
const PanelRows = 4096

// BatchedGram computes the Gram matrix C := A'*A for a tall-skinny A using
// the batched-GEMM schedule of the paper (Section V-F): A is split into
// row panels of PanelRows rows, each panel's small Gram matrix is a
// partial product, and the partials are added into C in panel order. C
// must be A.Cols x A.Cols.
func BatchedGram(a *Dense, c *Dense) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic("la: BatchedGram shape mismatch")
	}
	if a.Rows <= PanelRows {
		Syrk(a, c)
		return
	}
	c.Zero()
	part := NewDense(n, n)
	for i0 := 0; i0 < a.Rows; i0 += PanelRows {
		Syrk(a.RowView(i0, min(i0+PanelRows, a.Rows)), part)
		addInto(c, part)
	}
}

// BatchedGemmTN computes C := A'*B for tall-skinny A (k x m) and B (k x n)
// by row panels summed in panel order, the same schedule as BatchedGram
// but for two distinct operands (used by block orthogonalization,
// R := V_prev' V_new).
func BatchedGemmTN(a, b *Dense, c *Dense) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("la: BatchedGemmTN shape mismatch")
	}
	if a.Rows <= PanelRows {
		GemmTN(1, a, b, 0, c)
		return
	}
	c.Zero()
	part := NewDense(c.Rows, c.Cols)
	for i0 := 0; i0 < a.Rows; i0 += PanelRows {
		i1 := min(i0+PanelRows, a.Rows)
		GemmTN(1, a.RowView(i0, i1), b.RowView(i0, i1), 0, part)
		addInto(c, part)
	}
}

// addInto adds the partial product part into c column by column.
func addInto(c, part *Dense) {
	for j := 0; j < c.Cols; j++ {
		Axpy(1, part.Col(j), c.Col(j))
	}
}

// GramF32 computes the Gram matrix C := A'*A with single-precision
// accumulation, emulating the mixed-precision orthogonalization kernel of
// Yamazaki et al. (VECPAR 2014): inputs are rounded to float32, dot
// products accumulate in float32, and the result is widened back. The
// roundoff floor is eps_32 ~ 6e-8 instead of eps_64. The schedule is
// BatchedGram's: one float32 dot product per panel, the panel sums added
// in float32 in panel order.
func GramF32(a *Dense, c *Dense) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic("la: GramF32 shape mismatch")
	}
	buf := getF32(n * n)
	defer putF32(buf)
	sums := *buf
	for i := range sums {
		sums[i] = 0
	}
	for i0 := 0; i0 < a.Rows; i0 += PanelRows {
		i1 := min(i0+PanelRows, a.Rows)
		for j := 0; j < n; j++ {
			cj := a.Col(j)[i0:i1]
			for i := 0; i <= j; i++ {
				ci := a.Col(i)[i0:i1]
				var s float32
				for k := range cj {
					s += float32(ci[k]) * float32(cj[k])
				}
				sums[j*n+i] += s
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			s := float64(sums[j*n+i])
			c.Set(i, j, s)
			c.Set(j, i, s)
		}
	}
}
