package sparse

import "cagmres/internal/cpufeat"

var hasAVX2 = cpufeat.AVX2()

// sellMulVecAVX2 computes y[0:8*chunks] := (A x)[0:8*chunks], one chunk's
// eight rows in eight lanes. It checks nothing: the caller guarantees
// chunks full chunks, len(y) >= 8*chunks, len(x) >= Cols and the SELL
// invariants.
//
//go:noescape
func sellMulVecAVX2(y, x []float64, chunkPtr []int, colIdx []int32, val []float64, chunks int)

// mulVecChunks runs the vector body over the leading full chunks and
// returns how many it covered: all of them or, without AVX2, none.
func (s *SELL) mulVecChunks(y, x []float64, chunks int) int {
	if !hasAVX2 {
		return 0
	}
	sellMulVecAVX2(y, x, s.chunkPtr, s.colIdx, s.val, chunks)
	return chunks
}
