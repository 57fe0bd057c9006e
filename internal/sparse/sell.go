package sparse

import "fmt"

// sellChunk is the chunk height of SELL: eight rows share a chunk, so the
// SpMV kernel keeps eight row sums in registers.
const sellChunk = 8

// SELL is the device format of the matrix powers kernel: sliced ELLPACK
// (SELL-C of Kreutzer et al., C = 8, rows left in the order given). Rows
// are grouped into chunks of eight, each chunk padded only to its own
// widest row rather than the global maximum, and stored chunk after
// chunk, slot-major within the chunk. It keeps ELLPACK's regular
// slot-major access while taming its padding on skewed row lengths, and
// because the rows are not reordered a row prefix of the matrix is a
// chunk prefix of the storage — what the distance-ordered extended
// matrices of dist need. Padding slots carry column -1 and are skipped,
// never multiplied: a NaN or Inf in x must not reach rows that do not
// reference it.
//
// Invariants (SELLOfRows is the only builder; TestSELLInvariants holds it
// to them, and the amd64 kernel, which checks no bounds, relies on them):
// every colIdx entry is -1 or in [0, Cols); a padding slot's value is 0;
// len(colIdx) == len(val) == chunkPtr[len(chunkPtr)-1]; chunkPtr is
// non-decreasing in steps of whole slots (multiples of eight), so every
// chunk, the last included, is full height.
type SELL struct {
	Rows, Cols int
	// chunkPtr[k] is the offset of chunk k in colIdx/val; entry (lane l,
	// slot t) of chunk k lives at chunkPtr[k] + t*sellChunk + l. The last
	// chunk is full height too, its missing rows all padding.
	chunkPtr []int
	colIdx   []int32
	val      []float64
}

// SELLOfRows builds the SELL form of A(rows, :), where rows are the range
// lo..hi-1 followed by the list more, with every column index mapped
// through newOf (newOf[old] = new) into newCols columns and every row
// sorted by its new indices — ExtractRows followed by RelabelCols, in one
// pass and without the intermediate CSR. It is how the extended local
// matrices of the matrix powers kernel reach their device format: the
// owned block is the range, the halo the list. A stored column that newOf
// maps outside 0..newCols-1 panics, as in RelabelCols.
func (a *CSR) SELLOfRows(lo, hi int, more []int32, newOf []int32, newCols int) *SELL {
	n := hi - lo + len(more)
	row := func(out int) int { // the global index of output row out
		if out < hi-lo {
			return lo + out
		}
		return int(more[out-(hi-lo)])
	}
	nchunks := (n + sellChunk - 1) / sellChunk
	s := &SELL{Rows: n, Cols: newCols, chunkPtr: make([]int, nchunks+1)}
	wmax := 0
	for k := 0; k < nchunks; k++ {
		w := 0
		for out := k * sellChunk; out < min(n, (k+1)*sellChunk); out++ {
			i := row(out)
			w = max(w, a.RowPtr[i+1]-a.RowPtr[i])
		}
		s.chunkPtr[k+1] = s.chunkPtr[k] + w*sellChunk
		wmax = max(wmax, w)
	}
	s.colIdx = make([]int32, s.chunkPtr[nchunks])
	s.val = make([]float64, s.chunkPtr[nchunks])
	for i := range s.colIdx {
		s.colIdx[i] = -1
	}
	cols, vals := make([]int, wmax), make([]float64, wmax) // one row, relabeled, before it is scattered
	for out := 0; out < n; out++ {
		i := row(out)
		k0, k1 := a.RowPtr[i], a.RowPtr[i+1]
		rc, rv := cols[:k1-k0], vals[:k1-k0]
		for k, c := range a.ColIdx[k0:k1] {
			nc := int(newOf[c])
			if nc < 0 || nc >= newCols {
				panic(fmt.Sprintf("sparse: SELLOfRows incomplete map for column %d", c))
			}
			rc[k] = nc
		}
		copy(rv, a.Val[k0:k1])
		sortRow(rc, rv)
		at := s.chunkPtr[out/sellChunk] + out%sellChunk
		for slot, c := range rc {
			s.colIdx[at+slot*sellChunk] = int32(c)
			s.val[at+slot*sellChunk] = rv[slot]
		}
	}
	return s
}

// ToCSR converts back to CSR, dropping padding.
func (s *SELL) ToCSR() *CSR {
	a := NewCSR(s.Rows, s.Cols, s.NNZ())
	for i := 0; i < s.Rows; i++ {
		k := i / sellChunk
		for at := s.chunkPtr[k] + i%sellChunk; at < s.chunkPtr[k+1] && s.colIdx[at] >= 0; at += sellChunk {
			a.ColIdx = append(a.ColIdx, int(s.colIdx[at]))
			a.Val = append(a.Val, s.val[at])
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

// NNZ returns the number of non-padding entries.
func (s *SELL) NNZ() int {
	n := 0
	for _, c := range s.colIdx {
		if c >= 0 {
			n++
		}
	}
	return n
}

// PadRatio returns stored slots / nnz (1.0 = no padding).
func (s *SELL) PadRatio() float64 {
	nnz := s.NNZ()
	if nnz == 0 {
		return 1
	}
	return float64(len(s.val)) / float64(nnz)
}

// MulVecPrefix computes y[0:rows] := (A x)[0:rows] for the leading rows
// of the matrix — the per-step kernel of the matrix powers kernel, where
// step k multiplies only the rows within distance s-k of the owned set
// (a prefix, because extended rows are sorted by distance). Nothing past
// y[rows-1] is written.
//
// Every y[i] is the sum, started from +0, of its row's products in slot
// (ascending column) order — the operations and the order of a per-row
// CSR sweep, so the result does not depend on the chunking. A full chunk
// keeps its eight row sums in registers across the chunk's slots and
// writes y once; the eight independent add chains overlap where a single
// row's chain would wait out each add's latency.
//
// On amd64 with AVX2 the full chunks run in sellMulVecAVX2, one row per
// SIMD lane: per row the same products added in the same order, so the
// same bits (DESIGN section 8, "Host kernels").
func (s *SELL) MulVecPrefix(y, x []float64, rows int) {
	if rows > s.Rows || len(y) < rows || len(x) < s.Cols {
		panic(fmt.Sprintf("sparse: SELL MulVecPrefix rows=%d of %d, len(y)=%d, len(x)=%d of %d",
			rows, s.Rows, len(y), len(x), s.Cols))
	}
	s.mulVecScalar(y, x, s.mulVecChunks(y, x, rows/sellChunk), rows)
}

// mulVecScalar computes y[8*from:rows] := (A x)[8*from:rows], chunk from
// onwards: the Go body of MulVecPrefix, the tail of the vector body and
// the oracle its bit tests compare against.
func (s *SELL) mulVecScalar(y, x []float64, from, rows int) {
	full := rows / sellChunk
	for k := from; k < full; k++ {
		cols, vals := s.colIdx[s.chunkPtr[k]:s.chunkPtr[k+1]], s.val[s.chunkPtr[k]:s.chunkPtr[k+1]]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for len(cols) >= sellChunk && len(vals) >= sellChunk {
			if c := cols[0]; c >= 0 {
				s0 += vals[0] * x[c]
			}
			if c := cols[1]; c >= 0 {
				s1 += vals[1] * x[c]
			}
			if c := cols[2]; c >= 0 {
				s2 += vals[2] * x[c]
			}
			if c := cols[3]; c >= 0 {
				s3 += vals[3] * x[c]
			}
			if c := cols[4]; c >= 0 {
				s4 += vals[4] * x[c]
			}
			if c := cols[5]; c >= 0 {
				s5 += vals[5] * x[c]
			}
			if c := cols[6]; c >= 0 {
				s6 += vals[6] * x[c]
			}
			if c := cols[7]; c >= 0 {
				s7 += vals[7] * x[c]
			}
			cols, vals = cols[sellChunk:], vals[sellChunk:]
		}
		yk := y[k*sellChunk : (k+1)*sellChunk]
		yk[0], yk[1], yk[2], yk[3], yk[4], yk[5], yk[6], yk[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	// The prefix may end inside a chunk: its leading rows, one at a time.
	for i := full * sellChunk; i < rows; i++ {
		var sum float64
		for at := s.chunkPtr[full] + i%sellChunk; at < s.chunkPtr[full+1]; at += sellChunk {
			if c := s.colIdx[at]; c >= 0 {
				sum += s.val[at] * x[c]
			}
		}
		y[i] = sum
	}
}
