package sparse

// MulVecScalar is the Go loop of MulVecPrefix for the benchmarks of
// package sparse_test (matgen imports sparse, so they live outside it).
func (s *SELL) MulVecScalar(y, x []float64, rows int) { s.mulVecScalar(y, x, 0, rows) }
