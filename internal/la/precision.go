package la

import (
	"fmt"
	"math"
	"sync"
)

// This file holds the reduced-precision variants of the hot kernels and
// the width-narrowing helpers behind Options.Precision. The discipline
// mirrors GramF32: inputs are narrowed element by element at the kernel
// boundary, arithmetic accumulates in float32, and the result is widened
// back exactly once — so the roundoff floor is eps_32 ~ 6e-8 while the
// caller keeps working in []float64 storage. bfloat16 is a pure
// storage/transfer format (float32's exponent range, 8-bit mantissa);
// no kernel computes at that width, values are widened before use.

// BF16 rounds x to the nearest bfloat16 value (round-to-nearest-even on
// the top 16 bits of the float32 representation) and widens it back.
func BF16(x float64) float64 {
	f := float32(x)
	if f != f {
		// NaN: the carry trick below could walk the payload into the
		// infinity encoding; keep the quiet NaN as-is.
		return float64(f)
	}
	b := math.Float32bits(f)
	b += 0x7FFF + (b>>16)&1
	b &= 0xFFFF0000
	return float64(math.Float32frombits(b))
}

// RoundF32 narrows every element of x in place to its nearest float32
// value. This is the storage-rounding step of the fp32 basis pipeline:
// the slice stays []float64 but carries no more information than a
// float32 array would.
func RoundF32(x []float64) {
	for i, v := range x {
		x[i] = float64(float32(v))
	}
}

// RoundBF16 narrows every element of x in place to its nearest bfloat16
// value — the storage/transfer rounding behind compressed halos.
func RoundBF16(x []float64) {
	for i, v := range x {
		x[i] = BF16(v)
	}
}

// f32Pool recycles the float32 accumulation buffers of the
// single-precision kernels: after warm-up a narrow/compute/widen
// round-trip allocates nothing. Buffers are held behind a pointer so Put
// does not box a slice header on every call.
var f32Pool = sync.Pool{New: func() any { return new([]float32) }}

// getF32 fetches a pooled float32 buffer of length n (contents
// unspecified). Return it with putF32 when the kernel is done.
func getF32(n int) *[]float32 {
	p := f32Pool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

func putF32(p *[]float32) { f32Pool.Put(p) }

// gemvF32 computes y := alpha*A*x + beta*y in single precision, one
// column of GemmNNF32. The axpy-form column sweep of Gemv is kept, but the
// running y is held in the caller's float32 accumulator (so a whole GEMM
// reuses one): A and x are narrowed on the fly, every accumulation is
// float32, and y is widened back once at the end.
func gemvF32(alpha float32, a *Dense, x []float64, beta float32, y []float64, acc []float32) {
	if beta == 0 {
		for i := range acc {
			acc[i] = 0
		}
	} else {
		for i, v := range y {
			acc[i] = beta * float32(v)
		}
	}
	for j := 0; j < a.Cols; j++ {
		axj := alpha * float32(x[j])
		if axj == 0 {
			continue
		}
		for i, v := range a.Col(j) {
			acc[i] += axj * float32(v)
		}
	}
	for i, v := range acc {
		y[i] = float64(v)
	}
}

// GemmNNF32 computes C := alpha*A*B + beta*C in single precision, column
// by column through the shared float32 accumulator. This is the fp32
// basis-update kernel (V := V - V_prev*R) of the mixed pipeline.
func GemmNNF32(alpha float64, a, b *Dense, beta float64, c *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("la: GemmNNF32 shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	acc := getF32(a.Rows)
	defer putF32(acc)
	af, bf := float32(alpha), float32(beta)
	for j := 0; j < b.Cols; j++ {
		gemvF32(af, a, b.Col(j), bf, c.Col(j), *acc)
	}
}

// GemmTNF32 computes C := alpha*A'*B + beta*C in single precision: each
// entry is a float32 dot product of narrowed columns. With A and B
// tall-skinny this is the fp32 projection kernel (R := V_prev'V_new) of
// block orthogonalization, the two-operand sibling of GramF32.
func GemmTNF32(alpha float64, a, b *Dense, beta float64, c *Dense) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("la: GemmTNF32 shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	af, bf := float32(alpha), float32(beta)
	for j := 0; j < b.Cols; j++ {
		bj := b.Col(j)
		cj := c.Col(j)
		for i := 0; i < a.Cols; i++ {
			var s float32
			for k, v := range a.Col(i) {
				s += float32(v) * float32(bj[k])
			}
			if bf == 0 {
				cj[i] = float64(af * s)
			} else {
				cj[i] = float64(af*s + bf*float32(cj[i]))
			}
		}
	}
}
