package la

import "cagmres/internal/cpufeat"

var hasAVX2 = cpufeat.AVX2()

// axpy4AVX2 is axpy4's loop over the first len(y) &^ 3 elements, four
// values of i in four lanes. It checks nothing: a0..a3 are at least as
// long as y.
//
//go:noescape
func axpy4AVX2(c0, c1, c2, c3 float64, a0, a1, a2, a3, y []float64)

// axpy4Vec runs the vector body over the leading elements of y and
// returns how many it covered: len(y) rounded down to a multiple of four
// or, without AVX2, none.
func axpy4Vec(c0, c1, c2, c3 float64, a0, a1, a2, a3, y []float64) int {
	if !hasAVX2 {
		return 0
	}
	axpy4AVX2(c0, c1, c2, c3, a0, a1, a2, a3, y)
	return len(y) &^ 3
}
