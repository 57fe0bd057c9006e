// Package cpufeat answers the one question the host kernels ask of the
// processor: may the AVX2 bodies of sparse.SELL.MulVecPrefix and la's
// axpy4 and Gram tile run? The answer is read from the CPU once, when the
// package is initialised, and nothing — no option, flag, environment
// variable or build tag — can set it: both bodies produce the same bits,
// so there is nothing to choose.
package cpufeat

// AVX2 reports whether the processor and the operating system support
// AVX2: always false off amd64.
func AVX2() bool { return avx2 }
