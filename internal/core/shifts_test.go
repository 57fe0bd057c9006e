package core

import (
	"math/cmplx"
	"testing"

	"cagmres/internal/la"
)

func TestNewtonShiftsFromDiagonalH(t *testing.T) {
	h := la.NewDense(3, 3)
	h.Set(0, 0, 3)
	h.Set(1, 1, 1)
	h.Set(2, 2, 2)
	shifts := newtonShifts(h, 6)
	if len(shifts) != 6 {
		t.Fatalf("len = %d", len(shifts))
	}
	// First shift must be the largest-modulus Ritz value.
	if shifts[0] != 3 {
		t.Fatalf("first shift = %v", shifts[0])
	}
	// Cycled: values repeat from the Leja sequence.
	seen := map[float64]int{}
	for _, z := range shifts {
		if imag(z) != 0 {
			t.Fatalf("unexpected complex shift %v", z)
		}
		seen[real(z)]++
	}
	if seen[3] != 2 || seen[1] != 2 || seen[2] != 2 {
		t.Fatalf("cycling wrong: %v", seen)
	}
}

func TestNewtonShiftsKeepsPairs(t *testing.T) {
	// H = rotation-like matrix with complex eigenvalues.
	h := la.NewDense(2, 2)
	h.Set(0, 1, -4)
	h.Set(1, 0, 1)
	shifts := newtonShifts(h, 4)
	if len(shifts) != 4 {
		t.Fatalf("len = %d", len(shifts))
	}
	for i := 0; i < 4; i += 2 {
		if imag(shifts[i]) <= 0 {
			t.Fatalf("pair leader at %d has imag %v", i, imag(shifts[i]))
		}
		if cmplx.Abs(shifts[i+1]-cmplx.Conj(shifts[i])) > 1e-12 {
			t.Fatalf("pair at %d not conjugate", i)
		}
	}
}

func TestNewtonShiftsOddTruncation(t *testing.T) {
	// m odd with only complex pairs: the last slot cannot hold a pair and
	// must be realified.
	h := la.NewDense(2, 2)
	h.Set(0, 1, -4)
	h.Set(1, 0, 1)
	shifts := newtonShifts(h, 3)
	if len(shifts) != 3 {
		t.Fatalf("len = %d", len(shifts))
	}
	if imag(shifts[2]) != 0 {
		t.Fatalf("last shift should be realified, got %v", shifts[2])
	}
	validateNoSplitPairs(t, [][]complex128{shifts})
}

func validateNoSplitPairs(t *testing.T, blocks [][]complex128) {
	t.Helper()
	for bi, b := range blocks {
		for i := 0; i < len(b); i++ {
			if imag(b[i]) > 0 {
				if i+1 >= len(b) || cmplx.Abs(b[i+1]-cmplx.Conj(b[i])) > 1e-12 {
					t.Fatalf("block %d: pair split at %d: %v", bi, i, b)
				}
				i++
			} else if imag(b[i]) < 0 {
				t.Fatalf("block %d: dangling conjugate at %d: %v", bi, i, b)
			}
		}
	}
}

func TestScheduleShiftsRealOnly(t *testing.T) {
	shifts := []complex128{1, 2, 3, 4, 5, 6, 7}
	blocks := scheduleShifts(shifts, 7, 3)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v", blocks)
	}
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	if total != 7 {
		t.Fatalf("total = %d", total)
	}
	if len(blocks[0]) != 3 || len(blocks[1]) != 3 || len(blocks[2]) != 1 {
		t.Fatalf("sizes wrong: %v", blocks)
	}
}

func TestScheduleShiftsPairAtBoundary(t *testing.T) {
	// Pair leader would land on the last slot of the first window: the
	// window must close early.
	shifts := []complex128{1, 2, complex(3, 1), complex(3, -1), 5}
	blocks := scheduleShifts(shifts, 5, 3)
	validateNoSplitPairs(t, blocks)
	if len(blocks[0]) != 2 {
		t.Fatalf("first block should shrink to 2: %v", blocks)
	}
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	if total != 5 {
		t.Fatalf("total = %d", total)
	}
}

func TestScheduleShiftsS1RealifiesPairs(t *testing.T) {
	shifts := []complex128{complex(1, 2), complex(1, -2)}
	blocks := scheduleShifts(shifts, 2, 1)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	for _, b := range blocks {
		if len(b) != 1 || imag(b[0]) != 0 {
			t.Fatalf("s=1 block = %v", b)
		}
	}
}

func TestScheduleShiftsNil(t *testing.T) {
	if scheduleShifts(nil, 10, 3) != nil {
		t.Fatal("nil shifts must yield nil blocks")
	}
}
