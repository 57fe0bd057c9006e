package la

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestBatchedGramMatchesSyrk(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, rows := range []int{10, PanelRows - 1, PanelRows, PanelRows + 1, 3*PanelRows + 17} {
		a := randDense(rng, rows, 5)
		want := NewDense(5, 5)
		Syrk(a, want)
		got := NewDense(5, 5)
		BatchedGram(a, got)
		if !got.Equalish(want, 1e-10*(1+want.MaxAbs())) {
			t.Fatalf("rows=%d: BatchedGram mismatch", rows)
		}
	}
}

func TestBatchedGramPaddedStride(t *testing.T) {
	// The paper pads the leading dimension so every batched panel has the
	// same size; verify a strided view computes the same Gram matrix.
	rng := rand.New(rand.NewSource(41))
	rows, cols := 2*PanelRows+100, 4
	padded := newDenseStride(rows, cols, rows+60)
	for j := 0; j < cols; j++ {
		col := padded.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	want := NewDense(cols, cols)
	Syrk(padded, want)
	got := NewDense(cols, cols)
	BatchedGram(padded, got)
	if !got.Equalish(want, 1e-10*(1+want.MaxAbs())) {
		t.Fatal("BatchedGram on padded stride mismatch")
	}
}

func TestBatchedGemmTNMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randDense(rng, 2*PanelRows+3, 6)
	b := randDense(rng, 2*PanelRows+3, 4)
	want := NewDense(6, 4)
	GemmTN(1, a, b, 0, want)
	got := NewDense(6, 4)
	BatchedGemmTN(a, b, got)
	if !got.Equalish(want, 1e-10*(1+want.MaxAbs())) {
		t.Fatal("BatchedGemmTN mismatch")
	}
}

// panelRowCounts straddle the panel height: one short panel, exactly one,
// one plus a single row, and several with a ragged last panel.
var panelRowCounts = []int{PanelRows - 1, PanelRows, PanelRows + 1, 3*PanelRows + 17}

// panelSum is the panel schedule written out as the oracle: a fresh
// partial product per PanelRows-row panel, added into a zeroed C in panel
// order. A single panel's partial is C itself.
func panelSum(rows int, c *Dense, partial func(i0, i1 int) *Dense) {
	if rows <= PanelRows {
		c.CopyFrom(partial(0, rows))
		return
	}
	c.Zero()
	for i0 := 0; i0 < rows; i0 += PanelRows {
		part := partial(i0, min(i0+PanelRows, rows))
		for i := range c.Data {
			c.Data[i] += part.Data[i]
		}
	}
}

// TestPanelKernelsSumPanelsInOrder pins the batched kernels' summation
// order bit for bit, specials included: a tolerance cannot tell one
// panel order from another, Float64bits can.
func TestPanelKernelsSumPanelsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, rows := range panelRowCounts {
		for _, special := range []bool{false, true} {
			tag := fmt.Sprintf("rows=%d special=%v", rows, special)

			// A padded-stride view, the layout the paper batches over.
			a := newDenseStride(rows, 5, rows+37)
			for j := 0; j < a.Cols; j++ {
				copy(a.Col(j), awkwardVec(rng, rows, special))
			}
			got, want := NewDense(5, 5), NewDense(5, 5)
			BatchedGram(a, got)
			panelSum(rows, want, func(i0, i1 int) *Dense {
				part := NewDense(5, 5)
				Syrk(a.RowView(i0, i1), part)
				return part
			})
			if err := sameBits(got.Data, want.Data); err != nil {
				t.Fatalf("BatchedGram %s: %v", tag, err)
			}

			b := awkwardDense(rng, rows, 6, special)
			w := awkwardDense(rng, rows, 4, special)
			got, want = NewDense(6, 4), NewDense(6, 4)
			BatchedGemmTN(b, w, got)
			panelSum(rows, want, func(i0, i1 int) *Dense {
				part := NewDense(6, 4)
				GemmTN(1, b.RowView(i0, i1), w.RowView(i0, i1), 0, part)
				return part
			})
			if err := sameBits(got.Data, want.Data); err != nil {
				t.Fatalf("BatchedGemmTN %s: %v", tag, err)
			}

			got, want = NewDense(6, 6), NewDense(6, 6)
			GramF32(b, got)
			oracleGramF32(b, want)
			if err := sameBits(got.Data, want.Data); err != nil {
				t.Fatalf("GramF32 %s: %v", tag, err)
			}
		}
	}
}

// oracleGramF32 is GramF32's definition: per panel, float32 dot products
// of the narrowed columns in row order; across panels, float32 sums from
// zero in panel order, widened once and mirrored.
func oracleGramF32(a, c *Dense) {
	n := a.Cols
	sums := make([]float32, n*n)
	for i0 := 0; i0 < a.Rows; i0 += PanelRows {
		i1 := min(i0+PanelRows, a.Rows)
		part := make([]float32, n*n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				for k := i0; k < i1; k++ {
					part[j*n+i] += float32(a.At(k, i)) * float32(a.At(k, j))
				}
			}
		}
		for idx, s := range part {
			sums[idx] += s
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			c.Set(i, j, float64(sums[j*n+i]))
			c.Set(j, i, float64(sums[j*n+i]))
		}
	}
}
