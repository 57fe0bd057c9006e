package gpu

import (
	"math"
	"math/rand"
	"testing"

	"cagmres/internal/la"
	"cagmres/internal/sparse"
)

// The convention every Work constructor charges under (Work's doc
// comment): each operand with a row dimension is read once and each such
// output written once, at its element width; operands without one
// (coefficient vectors, the small Gram, R and C blocks, scalars) are not
// counted; flops count each multiply, add and divide. Each case below runs
// the kernel a device body runs beside a textbook loop that computes the
// same result and counts under that convention: a flop at each arithmetic
// operation, and the distinct elements of each row operand it loads and
// stores (a second touch of an element is a cache hit). A case whose
// charge departs from its count says how; the test then asserts that it
// still departs, so the note cannot outlive the charge it describes.
func TestWorkConstructorsCountTheirKernels(t *testing.T) {
	const r, k, p, w, c = 37, 5, 3, 4, 6
	fp64 := []Elem{Elem64}
	for _, tc := range []struct {
		name    string
		elems   []Elem
		run     func(t *testing.T, e Elem) (Work, *counter)
		departs string
	}{
		{name: "Dot", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			x, y := randVec(r), randVec(r)
			var n counter
			ox, oy := n.operand(r, 8), n.operand(r, 8)
			s := 0.0
			for i := range x {
				ox.load(i)
				oy.load(i)
				s += x[i] * y[i]
				n.flops += 2
			}
			closeTo(t, "Dot", []float64{la.Dot(x, y)}, []float64{s}, Elem64)
			return Dot(r), &n
		}},
		{name: "SelfDot", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			x := randVec(r)
			var n counter
			ox := n.operand(r, 8)
			s := 0.0
			for i := range x {
				ox.load(i)
				s += x[i] * x[i]
				n.flops += 2
			}
			closeTo(t, "SelfDot", []float64{la.Dot(x, x)}, []float64{s}, Elem64)
			return SelfDot(r), &n
		}},
		{name: "Axpy", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			x, y := randVec(r), randVec(r)
			want := append([]float64(nil), y...)
			var n counter
			ox, oy := n.operand(r, 8), n.operand(r, 8)
			for i := range x {
				ox.load(i)
				oy.load(i)
				want[i] += 0.5 * x[i]
				oy.store(i)
				n.flops += 2
			}
			la.Axpy(0.5, x, y)
			closeTo(t, "Axpy", y, want, Elem64)
			return Axpy(r), &n
		}},
		{name: "Scale", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			x := randVec(r)
			want := append([]float64(nil), x...)
			var n counter
			ox := n.operand(r, 8)
			for i := range want {
				ox.load(i)
				want[i] *= 0.5
				ox.store(i)
				n.flops++
			}
			la.Scal(0.5, x)
			closeTo(t, "Scale", x, want, Elem64)
			return Scale(r), &n
		}},
		// Sub has no la kernel: the device body (core's residual) is its
		// own loop, so the count is the whole check.
		{name: "Sub", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			x, y := randVec(r), randVec(r)
			var n counter
			ox, oy := n.operand(r, 8), n.operand(r, 8)
			for i := range y {
				ox.load(i)
				oy.load(i)
				y[i] = x[i] - y[i]
				oy.store(i)
				n.flops++
			}
			return Sub(r), &n
		}},
		{name: "GemvT", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			a, x := randDense(r, k), randVec(r)
			want := make([]float64, k)
			var n counter
			oa, ox := n.operand(r*k, 8), n.operand(r, 8)
			for j := range want {
				for i := range x {
					oa.load(j*r + i)
					ox.load(i)
					want[j] += a.At(i, j) * x[i]
					n.flops += 2
				}
			}
			y := make([]float64, k)
			la.GemvT(1, a, x, 0, y)
			closeTo(t, "GemvT", y, want, Elem64)
			return GemvT(r, k), &n
		}},
		{name: "Gemv", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			a, coef, y := randDense(r, k), randVec(k), randVec(r)
			want := append([]float64(nil), y...)
			var n counter
			oa, oy := n.operand(r*k, 8), n.operand(r, 8)
			for i := range want {
				oy.load(i)
				for j := range coef {
					oa.load(j*r + i)
					want[i] -= a.At(i, j) * coef[j]
					n.flops += 2
				}
				oy.store(i)
			}
			la.Gemv(-1, a, coef, 1, y)
			closeTo(t, "Gemv", y, want, Elem64)
			return Gemv(r, k), &n
		}},
		{name: "Rank1", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			wm, x, coef := randDense(r, k), randVec(r), randVec(k)
			want := wm.Clone()
			var n counter
			ow, ox := n.operand(r*k, 8), n.operand(r, 8)
			for j := range coef {
				for i := range x {
					ox.load(i)
					ow.load(j*r + i)
					want.Set(i, j, want.At(i, j)-coef[j]*x[i])
					ow.store(j*r + i)
					n.flops += 2
				}
			}
			for j, cj := range coef { // as BOrth-MGS's rank-1 body runs it
				la.Axpy(-cj, x, wm.Col(j))
			}
			closeTo(t, "Rank1", wm.Data, want.Data, Elem64)
			return Rank1(r, k), &n
		}},
		{name: "GemmTN", elems: []Elem{Elem64, Elem32}, run: func(t *testing.T, e Elem) (Work, *counter) {
			pm, wm := randDense(r, p), randDense(r, w)
			want := la.NewDense(p, w)
			var n counter
			op, ow := n.operand(r*p, e.Bytes()), n.operand(r*w, e.Bytes())
			for a := 0; a < p; a++ {
				for b := 0; b < w; b++ {
					s := 0.0
					for i := 0; i < r; i++ {
						op.load(a*r + i)
						ow.load(b*r + i)
						s += pm.At(i, a) * wm.At(i, b)
						n.flops += 2
					}
					want.Set(a, b, s)
				}
			}
			got := la.NewDense(p, w)
			if e == Elem32 {
				la.GemmTNF32(1, pm, wm, 0, got)
			} else {
				la.BatchedGemmTN(pm, wm, got)
			}
			closeTo(t, "GemmTN", got.Data, want.Data, e)
			return GemmTN(r, p, w, e), &n
		}},
		{name: "Syrk", elems: []Elem{Elem64, Elem32}, run: func(t *testing.T, e Elem) (Work, *counter) {
			wm := randDense(r, c)
			want := la.NewDense(c, c)
			var n counter
			ow := n.operand(r*c, e.Bytes())
			for b := 0; b < c; b++ {
				for a := 0; a <= b; a++ {
					s := 0.0
					for i := 0; i < r; i++ {
						ow.load(a*r + i)
						ow.load(b*r + i)
						s += wm.At(i, a) * wm.At(i, b)
						n.flops += 2
					}
					want.Set(a, b, s)
					want.Set(b, a, s)
				}
			}
			got := la.NewDense(c, c)
			if e == Elem32 {
				la.GramF32(wm, got)
			} else {
				la.BatchedGram(wm, got)
			}
			closeTo(t, "Syrk", got.Data, want.Data, e)
			return Syrk(r, c, e), &n
		}, departs: "charges rc² flops, half the full c x c product's 2rc²; the upper triangle with its diagonal, which the kernel computes, costs rc(c+1)"},
		{name: "GemmNN", elems: []Elem{Elem64, Elem32}, run: func(t *testing.T, e Elem) (Work, *counter) {
			pm, m, wm := randDense(r, p), randDense(p, w), randDense(r, w)
			want := wm.Clone()
			var n counter
			op, ow := n.operand(r*p, e.Bytes()), n.operand(r*w, e.Bytes())
			for b := 0; b < w; b++ {
				for i := 0; i < r; i++ {
					ow.load(b*r + i)
					s := want.At(i, b)
					for a := 0; a < p; a++ {
						op.load(a*r + i)
						s -= pm.At(i, a) * m.At(a, b)
						n.flops += 2
					}
					want.Set(i, b, s)
					ow.store(b*r + i)
				}
			}
			if e == Elem32 {
				la.GemmNNF32(-1, pm, m, 1, wm)
			} else {
				la.GemmNN(-1, pm, m, 1, wm)
			}
			closeTo(t, "GemmNN", wm.Data, want.Data, e)
			return GemmNN(r, p, w, e), &n
		}},
		{name: "Trsm", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			wm, rm := randDense(r, c), la.NewDense(c, c)
			for j := 0; j < c; j++ {
				for i := 0; i < j; i++ {
					rm.Set(i, j, workRand.Float64()-0.5)
				}
				rm.Set(j, j, 1+workRand.Float64())
			}
			want := wm.Clone()
			var n counter
			ow := n.operand(r*c, 8)
			for j := 0; j < c; j++ {
				for i := 0; i < r; i++ {
					ow.load(j*r + i)
					s := want.At(i, j)
					for l := 0; l < j; l++ {
						ow.load(l*r + i)
						s -= want.At(i, l) * rm.At(l, j)
						n.flops += 2
					}
					want.Set(i, j, s/rm.At(j, j))
					n.flops++
					ow.store(j*r + i)
				}
			}
			la.TrsmRightUpper(wm, rm)
			closeTo(t, "Trsm", wm.Data, want.Data, Elem64)
			return Trsm(r, c), &n
		}},
		{name: "SpMV", elems: []Elem{Elem64, Elem32, ElemBF16}, run: func(t *testing.T, e Elem) (Work, *counter) {
			a := randSquareCSR(r)
			x := randVec(r)
			want := make([]float64, r)
			var n counter
			optr, ocol := n.operand(r+1, 4), n.operand(a.NNZ(), 4)
			oval, ox, oy := n.operand(a.NNZ(), e.Bytes()), n.operand(r, e.Bytes()), n.operand(r, e.Bytes())
			for i := 0; i < r; i++ {
				optr.load(i)
				optr.load(i + 1)
				for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
					ocol.load(q)
					oval.load(q)
					ox.load(a.ColIdx[q])
					want[i] += a.Val[q] * x[a.ColIdx[q]]
					n.flops += 2
				}
				oy.store(i)
			}
			ident := make([]int32, r)
			for i := range ident {
				ident[i] = int32(i)
			}
			y := make([]float64, r)
			a.SELLOfRows(0, r, nil, ident, r).MulVecPrefix(y, x, r)
			closeTo(t, "SpMV", y, want, Elem64)
			return SpMV(a.NNZ(), r, e), &n
		}, departs: "leaves out the row structure: CSR's rows+1 row pointers here, the slice pointers and padding slots on the SELL device format"},
		{name: "CAQRLocal", elems: fp64, run: func(t *testing.T, _ Elem) (Work, *counter) {
			wm := randDense(r, c)
			q, rf, n := countedHouseholder(wm)
			f := la.HouseholderQR(wm)
			closeTo(t, "CAQR Q", f.FormQ().Data, q.Data, Elem64)
			closeTo(t, "CAQR R", f.R().Data, rf.Data, Elem64)
			return CAQRLocal(r, c), n
		}, departs: "charges 2rc² flops each to factor and to form Q, where forming Q against all c columns costs about twice that, and rc² elements of traffic, a sweep of the trailing panel per reflector, where reading and writing the panel and Q once is 4rc"},
	} {
		for _, e := range tc.elems {
			got, n := tc.run(t, e)
			match := got.Flops == n.flops && got.Bytes == n.bytes() && got.Elem == e
			switch {
			case tc.departs == "" && !match:
				t.Errorf("%s at %v: charged %v flops, %v bytes at %v; counted %v flops, %v bytes",
					tc.name, e, got.Flops, got.Bytes, got.Elem, n.flops, n.bytes())
			case tc.departs != "" && match:
				t.Errorf("%s at %v: the charge now matches its count; drop the note %q", tc.name, e, tc.departs)
			case tc.departs != "":
				t.Logf("%s at %v departs (charged %v flops, %v bytes; counted %v, %v): %s",
					tc.name, e, got.Flops, got.Bytes, n.flops, n.bytes(), tc.departs)
			}
		}
	}
}

// counter tallies one reference loop: its flops, and per row operand the
// elements it loaded and stored.
type counter struct {
	flops float64
	ops   []*operand
}

// operand is one operand with a row dimension at its element width.
type operand struct {
	width          int
	loaded, stored []bool
}

func (n *counter) operand(len, width int) *operand {
	o := &operand{width: width, loaded: make([]bool, len), stored: make([]bool, len)}
	n.ops = append(n.ops, o)
	return o
}

func (o *operand) load(i int)  { o.loaded[i] = true }
func (o *operand) store(i int) { o.stored[i] = true }

// bytes is the traffic of each distinct element loaded or stored.
func (n *counter) bytes() float64 {
	b := 0
	for _, o := range n.ops {
		for i := range o.loaded {
			if o.loaded[i] {
				b += o.width
			}
			if o.stored[i] {
				b += o.width
			}
		}
	}
	return float64(b)
}

// countedHouseholder is the textbook Householder QR of w with its thin Q
// accumulated backwards (LAPACK's GEQR2 then ORG2R), counting as it goes:
// the panel is factored in place, Q formed in its own r x c operand.
func countedHouseholder(w *la.Dense) (q, r *la.Dense, n *counter) {
	m, c := w.Rows, w.Cols
	n = new(counter)
	ow, oq := n.operand(m*c, 8), n.operand(m*c, 8)
	a := w.Clone()
	at := func(i, j int) float64 { ow.load(j*m + i); return a.At(i, j) }
	set := func(i, j int, v float64) { a.Set(i, j, v); ow.store(j*m + i) }
	tau := make([]float64, c)
	for k := 0; k < c; k++ {
		alpha, ss := at(k, k), 0.0
		for i := k; i < m; i++ {
			ss += at(i, k) * at(i, k)
			n.flops += 2
		}
		beta := -math.Copysign(math.Sqrt(ss), alpha)
		tau[k] = (beta - alpha) / beta
		scale := 1 / (alpha - beta)
		n.flops += 5
		for i := k + 1; i < m; i++ {
			set(i, k, at(i, k)*scale)
			n.flops++
		}
		set(k, k, beta)
		for j := k + 1; j < c; j++ {
			s := at(k, j)
			for i := k + 1; i < m; i++ {
				s += at(i, k) * at(i, j)
				n.flops += 2
			}
			s *= tau[k]
			set(k, j, at(k, j)-s)
			n.flops += 2
			for i := k + 1; i < m; i++ {
				set(i, j, at(i, j)-s*at(i, k))
				n.flops += 2
			}
		}
	}
	r = la.NewDense(c, c)
	for j := 0; j < c; j++ {
		for i := 0; i <= j; i++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	q = la.NewDense(m, c)
	qat := func(i, j int) float64 { oq.load(j*m + i); return q.At(i, j) }
	qset := func(i, j int, v float64) { q.Set(i, j, v); oq.store(j*m + i) }
	for j := 0; j < c; j++ {
		qset(j, j, 1)
	}
	for k := c - 1; k >= 0; k-- {
		for j := 0; j < c; j++ {
			s := qat(k, j)
			for i := k + 1; i < m; i++ {
				s += at(i, k) * qat(i, j)
				n.flops += 2
			}
			s *= tau[k]
			qset(k, j, qat(k, j)-s)
			n.flops += 2
			for i := k + 1; i < m; i++ {
				qset(i, j, qat(i, j)-s*at(i, k))
				n.flops += 2
			}
		}
	}
	return q, r, n
}

// workRand seeds the test data, so a failing comparison repeats.
var workRand = rand.New(rand.NewSource(1))

func randVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = workRand.Float64() - 0.5
	}
	return x
}

func randDense(rows, cols int) *la.Dense {
	a := la.NewDense(rows, cols)
	copy(a.Data, randVec(rows*cols))
	return a
}

// randSquareCSR is an n x n matrix with a full diagonal, so a product
// reads every element of x, and a few random entries a row.
func randSquareCSR(n int) *sparse.CSR {
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 2})
		for range workRand.Intn(4) {
			coords = append(coords, sparse.Coord{Row: i, Col: workRand.Intn(n), Val: workRand.Float64() - 0.5})
		}
	}
	return sparse.FromCoords(n, n, coords)
}

// closeTo compares a kernel's result with its reference loop's, to the
// rounding of the width the kernel accumulates at.
func closeTo(t *testing.T, name string, got, want []float64, e Elem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s at %v: %d results, %d from the reference loop", name, e, len(got), len(want))
	}
	tol := 1e-12
	if e != Elem64 {
		tol = 1e-5
	}
	scale := 1.0
	for _, v := range want {
		scale = max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > tol*scale {
			t.Fatalf("%s at %v: entry %d is %v, the reference loop has %v", name, e, i, got[i], want[i])
		}
	}
}
