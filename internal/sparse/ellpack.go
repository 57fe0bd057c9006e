package sparse

import "fmt"

// ELL is the ELLPACK sparse format the paper uses on the GPUs: every row
// stores exactly Width (column, value) slots, padded with a sentinel
// column of -1 and zero value. The format is laid out column-major across
// slots (slot-major): slot k of all rows is contiguous, matching the
// coalesced-access layout GPU SpMV kernels want and giving regular,
// vectorizable inner loops on CPUs.
type ELL struct {
	Rows, Cols int
	Width      int
	// ColIdx and Val have length Rows*Width; entry (row i, slot k) lives
	// at k*Rows + i.
	ColIdx []int32
	Val    []float64
}

// ToELL converts a CSR matrix to ELLPACK. The padding overhead is
// (Width*Rows - nnz) slots; for the banded FEM matrices of the paper the
// overhead is small, for power-law rows it can be large — PadRatio reports
// it so benchmarks can show the trade-off.
func ToELL(a *CSR) *ELL {
	w := a.MaxRowNNZ()
	e := &ELL{
		Rows:   a.Rows,
		Cols:   a.Cols,
		Width:  w,
		ColIdx: make([]int32, a.Rows*w),
		Val:    make([]float64, a.Rows*w),
	}
	for i := range e.ColIdx {
		e.ColIdx[i] = -1
	}
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			slot := k - lo
			e.ColIdx[slot*a.Rows+i] = int32(a.ColIdx[k])
			e.Val[slot*a.Rows+i] = a.Val[k]
		}
	}
	return e
}

// ToCSR converts back to CSR, dropping padding.
func (e *ELL) ToCSR() *CSR {
	a := NewCSR(e.Rows, e.Cols, e.NNZ())
	for i := 0; i < e.Rows; i++ {
		for k := 0; k < e.Width; k++ {
			c := e.ColIdx[k*e.Rows+i]
			if c < 0 {
				continue
			}
			a.ColIdx = append(a.ColIdx, int(c))
			a.Val = append(a.Val, e.Val[k*e.Rows+i])
		}
		a.RowPtr[i+1] = len(a.ColIdx)
		sortRow(a.ColIdx[a.RowPtr[i]:], a.Val[a.RowPtr[i]:])
	}
	return a
}

// NNZ returns the number of non-padding entries.
func (e *ELL) NNZ() int {
	n := 0
	for _, c := range e.ColIdx {
		if c >= 0 {
			n++
		}
	}
	return n
}

// PadRatio returns (stored slots) / nnz, a measure of ELLPACK padding
// waste; 1.0 means no padding.
func (e *ELL) PadRatio() float64 {
	nnz := e.NNZ()
	if nnz == 0 {
		return 1
	}
	return float64(e.Rows*e.Width) / float64(nnz)
}

// MulVec computes y := A x in the slot-major order: the outer loop walks
// slots so each pass reads a contiguous stripe of ColIdx/Val, the access
// pattern that coalesces on GPUs.
func (e *ELL) MulVec(y, x []float64) {
	if len(x) != e.Cols || len(y) != e.Rows {
		panic(fmt.Sprintf("sparse: ELL MulVec shape mismatch A=%dx%d x=%d y=%d", e.Rows, e.Cols, len(x), len(y)))
	}
	for i := range y {
		y[i] = 0
	}
	for k := 0; k < e.Width; k++ {
		cols := e.ColIdx[k*e.Rows : (k+1)*e.Rows]
		vals := e.Val[k*e.Rows : (k+1)*e.Rows]
		for i := 0; i < e.Rows; i++ {
			c := cols[i]
			if c < 0 {
				continue
			}
			y[i] += vals[i] * x[c]
		}
	}
}
