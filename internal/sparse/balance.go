package sparse

import "math"

// Balance scales the matrix in place the way the paper preconditions its
// test systems (Section VI): rows are first scaled by their 2-norms, then
// columns by theirs. It returns the row and column scale vectors
// (rs, cs) so a solve of the balanced system can be mapped back:
//
//	A x = b  with  Ab = Dr A Dc,  xb = Dc^{-1} x,  bb = Dr b,
//
// where Dr = diag(rs) and Dc = diag(cs). Zero rows/columns get scale 1.
func Balance(a *CSR) (rowScale, colScale []float64) {
	rowScale = make([]float64, a.Rows)
	colScale = make([]float64, a.Cols)

	// Row pass: rs_i = 1/||a_i,:||_2.
	for i := 0; i < a.Rows; i++ {
		var ssq float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			ssq += a.Val[k] * a.Val[k]
		}
		if ssq == 0 {
			rowScale[i] = 1
			continue
		}
		rowScale[i] = 1 / math.Sqrt(ssq)
	}
	for i := 0; i < a.Rows; i++ {
		s := rowScale[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Val[k] *= s
		}
	}

	// Column pass on the row-scaled values: colScale holds each column's
	// sum of squares until it is turned into the scale.
	for k, c := range a.ColIdx {
		colScale[c] += a.Val[k] * a.Val[k]
	}
	for j, csq := range colScale {
		if csq == 0 {
			colScale[j] = 1
		} else {
			colScale[j] = 1 / math.Sqrt(csq)
		}
	}
	for k, c := range a.ColIdx {
		a.Val[k] *= colScale[c]
	}
	return rowScale, colScale
}

// ApplyRowScale computes b_balanced[i] = rowScale[i]*b[i] in place.
func ApplyRowScale(rowScale, b []float64) {
	for i := range b {
		b[i] *= rowScale[i]
	}
}

// RowNorms returns the 2-norm of every row.
func RowNorms(a *CSR) []float64 {
	norms := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var ssq float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			ssq += a.Val[k] * a.Val[k]
		}
		norms[i] = math.Sqrt(ssq)
	}
	return norms
}
