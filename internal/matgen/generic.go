package matgen

import (
	"math"
	"math/rand"

	"cagmres/internal/la"
	"cagmres/internal/sparse"
)

// Laplace2D builds the 5-point Laplacian on an nx x ny grid with an
// optional first-order convection term that makes it nonsymmetric (the
// standard convection-diffusion GMRES workload).
func Laplace2D(nx, ny int, convection float64) *sparse.CSR {
	n := nx * ny
	id := func(x, y int) int { return y*nx + x }
	entries := make([]sparse.Coord, 0, 5*n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 4})
			if x > 0 {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x-1, y), Val: -1 - convection})
			}
			if x+1 < nx {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x+1, y), Val: -1 + convection})
			}
			if y > 0 {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x, y-1), Val: -1})
			}
			if y+1 < ny {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x, y+1), Val: -1})
			}
		}
	}
	return sparse.FromCoords(n, n, entries)
}

// Laplace3D builds the 7-point Laplacian on an nx x ny x nz grid with an
// optional convection term along x.
func Laplace3D(nx, ny, nz int, convection float64) *sparse.CSR {
	n := nx * ny * nz
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	entries := make([]sparse.Coord, 0, 7*n)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := id(x, y, z)
				entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 6})
				if x > 0 {
					entries = append(entries, sparse.Coord{Row: i, Col: id(x-1, y, z), Val: -1 - convection})
				}
				if x+1 < nx {
					entries = append(entries, sparse.Coord{Row: i, Col: id(x+1, y, z), Val: -1 + convection})
				}
				if y > 0 {
					entries = append(entries, sparse.Coord{Row: i, Col: id(x, y-1, z), Val: -1})
				}
				if y+1 < ny {
					entries = append(entries, sparse.Coord{Row: i, Col: id(x, y+1, z), Val: -1})
				}
				if z > 0 {
					entries = append(entries, sparse.Coord{Row: i, Col: id(x, y, z-1), Val: -1})
				}
				if z+1 < nz {
					entries = append(entries, sparse.Coord{Row: i, Col: id(x, y, z+1), Val: -1})
				}
			}
		}
	}
	return sparse.FromCoords(n, n, entries)
}

// DiagDominant builds a random diagonally dominant nonsymmetric matrix
// with roughly deg+1 nonzeros per row — the generic quick-test matrix.
func DiagDominant(n, deg int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]sparse.Coord, 0, n*(deg+1))
	for i := 0; i < n; i++ {
		var sum float64
		for d := 0; d < deg; d++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: v})
			sum += math.Abs(v)
		}
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: sum + 1})
	}
	return sparse.FromCoords(n, n, entries)
}

// RandomTallSkinny builds an n x c dense matrix with the prescribed
// 2-norm condition number (geometrically spaced singular values), the
// input of the TSQR performance and stability studies (Figures 11, 13).
func RandomTallSkinny(n, c int, cond float64, seed int64) *la.Dense {
	rng := rand.New(rand.NewSource(seed))
	randm := func(rows, cols int) *la.Dense {
		m := la.NewDense(rows, cols)
		for j := 0; j < cols; j++ {
			col := m.Col(j)
			for i := range col {
				col[i] = rng.NormFloat64()
			}
		}
		return m
	}
	q1 := la.HouseholderQR(randm(n, c)).FormQ()
	q2 := la.HouseholderQR(randm(c, c)).FormQ()
	s := la.NewDense(c, c)
	for i := 0; i < c; i++ {
		expo := 0.0
		if c > 1 {
			expo = float64(i) / float64(c-1)
		}
		s.Set(i, i, math.Pow(cond, -expo))
	}
	tmp := la.NewDense(n, c)
	la.GemmNN(1, q1, s, 0, tmp)
	out := la.NewDense(n, c)
	la.GemmNN(1, tmp, q2.Transpose(), 0, out)
	return out
}

// RHS is the deterministic right-hand side number seed of an n-row
// system, entries in [1, 1.66]: the harnesses map a request's identity to
// a seed, so live, virtual and in-process runs solve the same systems.
func RHS(n, seed int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + 0.01*float64((i*131+seed*977)%67)
	}
	return b
}
