package core

import (
	"math/cmplx"

	"cagmres/internal/la"
)

// newtonShifts derives the Newton-basis shift sequence from the Hessenberg
// matrix of the first restart cycle (Bai, Hu, Reichel; Hoemmen Ch. 7): the
// Ritz values of A are the eigenvalues of H, ordered by the modified Leja
// ordering so consecutive shifts are far apart, with complex-conjugate
// pairs kept adjacent (positive-imaginary first) for the real-arithmetic
// recurrence. The sequence is then cycled to length m.
func newtonShifts(h *la.Dense, m int) []complex128 {
	if h.Rows == 0 {
		return nil
	}
	ritz := la.HessenbergEigenvalues(h)
	leja := la.LejaOrder(ritz)
	if len(leja) == 0 {
		return nil
	}
	// Cycle to m entries, never splitting a pair across the wrap.
	out := make([]complex128, 0, m)
	for len(out) < m {
		for i := 0; i < len(leja) && len(out) < m; i++ {
			z := leja[i]
			if imag(z) > 0 {
				if len(out)+2 > m {
					// No room for the pair: substitute the real part.
					out = append(out, complex(real(z), 0))
					continue
				}
				out = append(out, z, cmplx.Conj(z))
				i++ // skip the stored conjugate
				continue
			}
			if imag(z) < 0 {
				// Dangling conjugate (shouldn't happen after LejaOrder);
				// realify defensively.
				out = append(out, complex(real(z), 0))
				continue
			}
			out = append(out, z)
		}
	}
	return out
}

// scheduleShifts cuts an m-long shift sequence into MPK windows of at
// most s steps each, never splitting a complex-conjugate pair across a
// window boundary: when a pair leader would land on the last slot of a
// window, the window is closed one step early. For s == 1 pairs cannot
// fit at all, so each member is replaced by its real part (a documented
// degradation — s = 1 CA-GMRES is a pathological configuration the paper
// also treats as such). A nil input yields nil blocks (monomial basis).
func scheduleShifts(shifts []complex128, m, s int) [][]complex128 {
	if shifts == nil {
		return nil
	}
	if len(shifts) != m {
		panic("core: scheduleShifts needs exactly m shifts")
	}
	if s == 1 {
		blocks := make([][]complex128, m)
		for i, z := range shifts {
			blocks[i] = []complex128{complex(real(z), 0)}
		}
		return blocks
	}
	var blocks [][]complex128
	i := 0
	for i < m {
		end := i + s
		if end > m {
			end = m
		}
		// Do not split a pair: if the last included shift is a pair
		// leader, stop before it.
		if imag(shifts[end-1]) > 0 && end < m {
			end--
		}
		if end == i {
			// A pair leader alone at the very end of the sequence (can
			// happen after truncation): realify it.
			blocks = append(blocks, []complex128{complex(real(shifts[i]), 0)})
			i++
			continue
		}
		block := append([]complex128(nil), shifts[i:end]...)
		// A pair leader at the absolute end of the sequence has no
		// conjugate: realify.
		if imag(block[len(block)-1]) > 0 {
			block[len(block)-1] = complex(real(block[len(block)-1]), 0)
		}
		blocks = append(blocks, block)
		i = end
	}
	return blocks
}
