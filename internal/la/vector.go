// Package la provides the dense linear-algebra substrate used by the
// CA-GMRES reproduction: BLAS-1/2/3 style kernels, Householder QR,
// Cholesky and eigenvalue/SVD factorizations of small matrices, Givens
// least-squares solves for Hessenberg systems, and the Leja ordering of
// shifts used by the Newton-basis matrix powers kernel.
//
// The package has no dependency outside the repository; two inner loops,
// axpy4 (lanes across rows) and the 4x4 Gram tile under GemmTN and Syrk
// (lanes across columns), have an AVX2 assembly body on amd64 beside
// their Go loops. The package starts no goroutines: a device's kernels
// run on the goroutine gpu.Context gives that device, and device
// concurrency is the context's alone. The batched Gram kernels keep the
// panel schedule of the batched DGEMM of Yamazaki et al. (IPDPS 2014,
// Section V-F) as their numerical definition: the tall matrix is cut into
// row panels, each panel product is a partial, and the partials are
// summed in panel order.
package la

import (
	"fmt"
	"math"

	"cagmres/internal/cpufeat"
)

// hasAVX2 selects the vector bodies, read once from the CPU: both bodies
// produce the same bits, so nothing else may set it (the bit tests toggle
// it to hold one against the other).
var hasAVX2 = cpufeat.AVX2()

// Dot returns the inner product x'y. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// dot4 returns the four inner products a0'x, a1'x, a2'x, a3'x. Each sum
// is accumulated in index order exactly as Dot accumulates it, so every
// result equals Dot(ak, x) bit for bit; the four independent add chains
// overlap in the pipeline where a single Dot waits out each add's latency,
// and x is read once for the four columns.
func dot4(a0, a1, a2, a3, x []float64) (s0, s1, s2, s3 float64) {
	a0, a1, a2, a3 = a0[:len(x)], a1[:len(x)], a2[:len(x)], a3[:len(x)]
	for i, v := range x {
		s0 += a0[i] * v
		s1 += a1[i] * v
		s2 += a2[i] * v
		s3 += a3[i] * v
	}
	return
}

// gramTile sets out[4j+i] = Dot(A_{i0+i}, B_{j0+j}) for four columns of A
// against four columns of B (A.Rows == B.Rows). On amd64 with AVX2 the
// rows run through gramTileAVX2 two at a time, lanes across the four A
// columns, and an odd last row is added here to the stored sums: every
// entry is still Dot's sum from +0 in ascending row order, each product
// and each sum rounded on its own, so it equals Dot bit for bit (DESIGN
// section 8, "Host kernels"). Without the vector body the tile is four
// dot4 calls.
func gramTile(a *Dense, i0 int, b *Dense, j0 int, out *[16]float64) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("la: gramTile row mismatch %d vs %d", a.Rows, b.Rows))
	}
	a0, a1, a2, a3 := a.Col(i0), a.Col(i0+1), a.Col(i0+2), a.Col(i0+3)
	b0, b1, b2, b3 := b.Col(j0), b.Col(j0+1), b.Col(j0+2), b.Col(j0+3)
	r := gramTileVec(a0, a1, a2, a3, b0, b1, b2, b3, out)
	if r == 0 {
		for j, bj := range [4][]float64{b0, b1, b2, b3} {
			out[4*j], out[4*j+1], out[4*j+2], out[4*j+3] = dot4(a0, a1, a2, a3, bj)
		}
		return
	}
	if r < len(b0) {
		for j, v := range [4]float64{b0[r], b1[r], b2[r], b3[r]} {
			out[4*j] += a0[r] * v
			out[4*j+1] += a1[r] * v
			out[4*j+2] += a2[r] * v
			out[4*j+3] += a3[r] * v
		}
	}
}

// axpy4 computes y += c0*a0 + c1*a1 + c2*a2 + c3*a3 as four Axpy calls
// would: per element the four updates are applied in column order, each
// rounded on its own, but y is loaded and stored once. A zero coefficient
// must skip its column (Axpy does: 0*Inf would poison y), so a group that
// has one takes the four Axpy calls themselves.
//
// The elements are independent, so on amd64 with AVX2 the leading
// multiple of four runs four to a register in axpy4AVX2 — per element
// the same four multiplies and adds in the same order, none fused — and
// the Go loop takes the rest (DESIGN section 8, "Host kernels").
func axpy4(c0, c1, c2, c3 float64, a0, a1, a2, a3, y []float64) {
	if c0 == 0 || c1 == 0 || c2 == 0 || c3 == 0 {
		Axpy(c0, a0, y)
		Axpy(c1, a1, y)
		Axpy(c2, a2, y)
		Axpy(c3, a3, y)
		return
	}
	a0, a1, a2, a3 = a0[:len(y)], a1[:len(y)], a2[:len(y)], a3[:len(y)]
	n := axpy4Vec(c0, c1, c2, c3, a0, a1, a2, a3, y)
	axpy4Scalar(c0, c1, c2, c3, a0[n:], a1[n:], a2[n:], a3[n:], y[n:])
}

// axpy4Scalar is axpy4's loop for nonzero coefficients and columns of
// y's length: the Go body, the tail of the vector body and the oracle
// its bit tests compare against.
func axpy4Scalar(c0, c1, c2, c3 float64, a0, a1, a2, a3, y []float64) {
	a0, a1, a2, a3 = a0[:len(y)], a1[:len(y)], a2[:len(y)], a3[:len(y)]
	for i, t := range y {
		t += c0 * a0[i]
		t += c1 * a1[i]
		t += c2 * a2[i]
		t += c3 * a3[i]
		y[i] = t
	}
}

// Scal scales x by alpha in place.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns the Euclidean norm of x. It guards against overflow and
// underflow by scaling, following the classic LAPACK dnrm2 approach.
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
