package la

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

// gramTileAVX2 is gramTile's loop over the first len(b0) &^ 1 rows, the
// four columns of A in four lanes: out[4j+i] is the sum of a_i[r]*b_j[r]
// over those rows, from +0 in ascending r. It checks nothing: every
// column is at least as long as b0.
//
//go:noescape
func gramTileAVX2(a0, a1, a2, a3, b0, b1, b2, b3 []float64, out *[16]float64)

// gramTileVec runs the vector body over the leading rows of the tile and
// returns how many it covered: len(b0) rounded down to a multiple of two
// or, without AVX2, none.
func gramTileVec(a0, a1, a2, a3, b0, b1, b2, b3 []float64, out *[16]float64) int {
	if !hasAVX2 {
		return 0
	}
	gramTileAVX2(a0, a1, a2, a3, b0, b1, b2, b3, out)
	return len(b0) &^ 1
}

// dot8AVX2 is dot8's loop over the first len(x) &^ 1 rows, the eight
// columns in two registers of four lanes: out[k] is the sum of
// a[k][r]*x[r] over those rows, from +0 in ascending r. It checks
// nothing: every column is at least as long as x.
//
//go:noescape
func dot8AVX2(a *[8][]float64, x []float64, out *[8]float64)

// dot8Vec runs the vector body over the leading rows and returns how many
// it covered: len(x) rounded down to a multiple of two or, without AVX2,
// none.
func dot8Vec(a *[8][]float64, x []float64, out *[8]float64) int {
	if !hasAVX2 {
		return 0
	}
	dot8AVX2(a, x, out)
	return len(x) &^ 1
}
