// Package matgen generates the synthetic test matrices of the
// reproduction. The paper evaluates on four University of Florida
// collection matrices (cant, G3_circuit, dielFilterV2real, nlpkkt120);
// since the collection files are not redistributable inside this offline
// module, each generator synthesizes a matrix matched to its original's
// published size, nonzeros per row, and sparsity character:
//
//	cant             FEM cantilever      n=62k    nnz/row=64.2  banded 3D elasticity
//	G3_circuit       circuit simulation  n=1.59M  nnz/row=4.8   irregular, grid-like + long range
//	dielFilterV2real FEM electromagnetics n=1.16M nnz/row=41.9  3D 27-point, 2 dof
//	nlpkkt120        KKT optimization    n=3.54M  nnz/row=26.9  saddle point
//
// Every generator takes a scale knob so experiments can run laptop-sized
// while keeping the structural regimes (bandedness, surface-to-volume
// growth, indefiniteness) that drive the paper's results. Scale 1.0
// reproduces the published dimensions.
package matgen

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"cagmres/internal/sparse"
)

// Matrix bundles a generated matrix with its provenance.
type Matrix struct {
	Name string
	// Kind describes the analogue ("FEM Cantilever", ...).
	Kind string
	A    *sparse.CSR
}

// cube returns grid dimensions whose product is close to n.
func cube(n int) (int, int, int) {
	c := int(math.Cbrt(float64(n)))
	if c < 2 {
		c = 2
	}
	return c, c, c
}

// Cant builds the FEM-cantilever analogue: a 3D hexahedral grid with
// three displacement degrees of freedom per node and near-full coupling
// within the face/edge neighborhood, giving the banded ~60 nnz/row
// elasticity structure whose surface-to-volume ratio grows linearly with
// the MPK depth (the "nice" case of Figures 6-8). Values form a
// diagonally dominant SPD-like stiffness matrix.
func Cant(scale float64) *Matrix {
	nodes := int(62000 * scale / 3)
	if nodes < 8 {
		nodes = 8
	}
	// Long thin beam: x dimension dominates, like a cantilever.
	nz := int(math.Max(3, math.Cbrt(float64(nodes)/16)))
	ny := nz
	nx := nodes / (ny * nz)
	if nx < 2 {
		nx = 2
	}
	return cantGrid(nx, ny, nz)
}

func cantGrid(nx, ny, nz int) *Matrix {
	nodes := nx * ny * nz
	n := 3 * nodes
	// The long dimension (x) varies slowest so the natural ordering is
	// banded with half-bandwidth ~3*ny*nz — the property that makes
	// cant the well-behaved case of Figures 6-8.
	id := func(x, y, z, d int) int { return 3*((x*ny+y)*nz+z) + d }
	entries := make([]sparse.Coord, 0, n*60)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for d := 0; d < 3; d++ {
					row := id(x, y, z, d)
					var offDiagSum float64
					add := func(dx, dy, dz, dd int, v float64) {
						xx, yy, zz := x+dx, y+dy, z+dz
						if xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz {
							return
						}
						entries = append(entries, sparse.Coord{Row: row, Col: id(xx, yy, zz, dd), Val: v})
						offDiagSum += math.Abs(v)
					}
					// Neighbor nodes with L1 offset <= 2 (19 nodes):
					// full 3-dof coupling -> up to 57 off-diagonal slots.
					for dz := -1; dz <= 1; dz++ {
						for dy := -1; dy <= 1; dy++ {
							for dx := -1; dx <= 1; dx++ {
								l1 := abs(dx) + abs(dy) + abs(dz)
								if l1 == 0 || l1 > 2 {
									continue
								}
								for dd := 0; dd < 3; dd++ {
									v := -1.0 / float64(l1+1)
									if dd != d {
										v *= 0.3 // weaker cross-dof coupling
									}
									add(dx, dy, dz, dd, v)
								}
							}
						}
					}
					// Diagonal: barely dominant, like a stiffness matrix
					// with a large condition number (the real cant needs
					// several GMRES(60) restarts).
					entries = append(entries, sparse.Coord{Row: row, Col: row, Val: (1 + 1e-5) * offDiagSum})
				}
			}
		}
	}
	return &Matrix{Name: "cant", Kind: "FEM Cantilever", A: sparse.FromCoords(n, n, entries)}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// G3Circuit builds the circuit-simulation analogue: a 2D grid graph
// (conductance Laplacian, ~4.8 nnz/row) with a sprinkling of random
// long-range connections, reproducing G3_circuit's irregular structure
// whose surface-to-volume ratio explodes without reordering and still
// grows superlinearly after it (Figure 6's "hard" case).
func G3Circuit(scale float64) *Matrix {
	n := int(1585000 * scale)
	if n < 16 {
		n = 16
	}
	side := int(math.Sqrt(float64(n)))
	n = side * side
	rng := rand.New(rand.NewSource(33))
	// Circuit netlists carry no geometric node numbering: shuffle the
	// grid ids. This is what makes the natural ordering useless for
	// G3_circuit in the paper ("the natural matrix ordering in some
	// cases leads to the full index set even for a small value of s")
	// and what RCM / k-way reordering then repairs.
	shuffle := rng.Perm(n)
	id := func(x, y int) int { return shuffle[y*side+x] }
	entries := make([]sparse.Coord, 0, n*6)
	addSym := func(i, j int, v float64) {
		entries = append(entries, sparse.Coord{Row: i, Col: j, Val: v})
		entries = append(entries, sparse.Coord{Row: j, Col: i, Val: v})
	}
	diag := make([]float64, n)
	couple := func(i, j int) {
		g := 0.5 + rng.Float64() // conductance
		addSym(i, j, -g)
		diag[i] += g
		diag[j] += g
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			i := id(x, y)
			if x+1 < side {
				couple(i, id(x+1, y))
			}
			if y+1 < side {
				couple(i, id(x, y+1))
			}
		}
	}
	// ~0.5% of nodes get one long-range connection (vias / supply rails).
	long := n / 200
	for k := 0; k < long; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i != j {
			couple(i, j)
		}
	}
	for i := 0; i < n; i++ {
		// Grounding leak keeps the matrix nonsingular.
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: diag[i] + 0.05})
	}
	return &Matrix{Name: "G3_circuit", Kind: "Circuit simulation", A: sparse.FromCoords(n, n, entries)}
}

// DielFilter builds the electromagnetics-FEM analogue: a 3D grid with two
// field components per node, 27-point same-component stencils plus
// nearest-neighbor cross-component coupling (~42 nnz/row), mildly
// nonsymmetric and less diagonally dominant than the elasticity case, so
// GMRES needs many more iterations — matching dielFilterV2real's behavior
// in Figure 14.
func DielFilter(scale float64) *Matrix {
	nodes := int(1157000 * scale / 2)
	if nodes < 8 {
		nodes = 8
	}
	nx, ny, nz := cube(nodes)
	n := 2 * nx * ny * nz
	id := func(x, y, z, d int) int { return 2*((z*ny+y)*nx+x) + d }
	rng := rand.New(rand.NewSource(44))
	entries := make([]sparse.Coord, 0, n*42)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for d := 0; d < 2; d++ {
					row := id(x, y, z, d)
					var offSum float64
					add := func(dx, dy, dz, dd int, v float64) {
						xx, yy, zz := x+dx, y+dy, z+dz
						if xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz {
							return
						}
						entries = append(entries, sparse.Coord{Row: row, Col: id(xx, yy, zz, dd), Val: v})
						offSum += math.Abs(v)
					}
					for dz := -1; dz <= 1; dz++ {
						for dy := -1; dy <= 1; dy++ {
							for dx := -1; dx <= 1; dx++ {
								if dx == 0 && dy == 0 && dz == 0 {
									continue
								}
								cheb := max3(abs(dx), abs(dy), abs(dz))
								// Same component: full 27-point stencil.
								add(dx, dy, dz, d, -1.0/float64(cheb+1)+0.05*rng.NormFloat64())
								// Cross component: faces only (6 neighbors).
								if abs(dx)+abs(dy)+abs(dz) == 1 {
									add(dx, dy, dz, 1-d, 0.4+0.05*rng.NormFloat64())
								}
							}
						}
					}
					// Weakly dominant diagonal: slow convergence regime.
					entries = append(entries, sparse.Coord{Row: row, Col: row, Val: 0.7*offSum + 0.4})
				}
			}
		}
	}
	return &Matrix{Name: "dielFilterV2real", Kind: "FEM electromagnetics", A: sparse.FromCoords(n, n, entries)}
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// NLPKKT builds the KKT-optimization analogue: the saddle-point system
//
//	[ H  J' ]
//	[ J  -eI ]
//
// with H a 3D 7-point stiffness block and J a gradient-like constraint
// block — indefinite, ~27 nnz/row, the hardest convergence case in the
// paper (nlpkkt120 needs 746 GMRES(120) iterations, Figure 15).
func NLPKKT(scale float64) *Matrix {
	// Primal variables on a 3D grid; constraints on a coarser grid.
	nPrimal := int(3542000 * scale * 2 / 3)
	if nPrimal < 27 {
		nPrimal = 27
	}
	nx, ny, nz := cube(nPrimal)
	nPrimal = nx * ny * nz
	nDual := nPrimal / 2
	n := nPrimal + nDual
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	rng := rand.New(rand.NewSource(55))
	entries := make([]sparse.Coord, 0, n*27)
	// H block: 7-point stencil, SPD, plus second-ring couplings to thicken
	// rows toward the published density.
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := id(x, y, z)
				var offSum float64
				add := func(dx, dy, dz int, v float64) {
					xx, yy, zz := x+dx, y+dy, z+dz
					if xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz {
						return
					}
					entries = append(entries, sparse.Coord{Row: i, Col: id(xx, yy, zz), Val: v})
					offSum += math.Abs(v)
				}
				for _, o := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
					{2, 0, 0}, {-2, 0, 0}, {1, 1, 0}, {-1, -1, 0}, {0, 1, 1}, {0, -1, -1}} {
					add(o[0], o[1], o[2], -0.5-0.1*rng.Float64())
				}
				entries = append(entries, sparse.Coord{Row: i, Col: i, Val: (1+1e-4)*offSum + 0.001})
			}
		}
	}
	// J block: each dual couples a handful of nearby primals.
	for c := 0; c < nDual; c++ {
		row := nPrimal + c
		base := (c * 2) % nPrimal
		for k := 0; k < 6; k++ {
			col := (base + k*k + k) % nPrimal
			v := 1.0 + 0.2*rng.NormFloat64()
			entries = append(entries, sparse.Coord{Row: row, Col: col, Val: v})
			entries = append(entries, sparse.Coord{Row: col, Col: row, Val: v})
		}
		// Weak regularization keeps the saddle point nonsingular while
		// preserving the slow-convergence character of nlpkkt120.
		entries = append(entries, sparse.Coord{Row: row, Col: row, Val: -0.005})
	}
	return &Matrix{Name: "nlpkkt120", Kind: "KKT optimization", A: sparse.FromCoords(n, n, entries)}
}

// ByName builds one of the four paper analogues by name at the given
// scale.
func ByName(name string, scale float64) (*Matrix, error) {
	switch name {
	case "cant":
		return Cant(scale), nil
	case "G3_circuit", "g3_circuit", "g3":
		return G3Circuit(scale), nil
	case "dielFilterV2real", "dielfilter", "diel":
		return DielFilter(scale), nil
	case "nlpkkt120", "nlpkkt":
		return NLPKKT(scale), nil
	case "laplace3d", "laplace":
		// Generic 7-point Laplacian with mild convection: the structured
		// smoke-test problem (make metrics-smoke) — well conditioned at any
		// scale, so tiny observability runs converge in a few restarts.
		n := int(1585000 * scale)
		if n < 64 {
			n = 64
		}
		nx, ny, nz := cube(n)
		return &Matrix{
			Name: "laplace3d",
			Kind: "3D convection-diffusion",
			A:    Laplace3D(nx, ny, nz, 0.1),
		}, nil
	}
	return nil, fmt.Errorf("matgen: unknown matrix %q (want cant, G3_circuit, dielFilterV2real, nlpkkt120, laplace3d)", name)
}

// Load is the command-line matrix source: the MatrixMarket file at path
// when path is non-empty, otherwise the generator ByName(name, scale). It
// returns the matrix and the name to report it by.
func Load(path, name string, scale float64) (*sparse.CSR, string, error) {
	if path == "" {
		m, err := ByName(name, scale)
		if err != nil {
			return nil, "", err
		}
		return m.A, m.Name, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	a, err := sparse.ReadMatrixMarket(f)
	if err != nil {
		return nil, "", err
	}
	return a, path, nil
}

// PaperSet returns all four analogues at the given scale, in the paper's
// order (Figure 12).
func PaperSet(scale float64) []*Matrix {
	return []*Matrix{Cant(scale), G3Circuit(scale), DielFilter(scale), NLPKKT(scale)}
}
