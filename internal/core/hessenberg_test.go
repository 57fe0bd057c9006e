package core

import (
	"math"
	"math/rand"
	"testing"

	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/ortho"
	"cagmres/internal/sparse"
)

// TestHessenbergRecoveryIdentity drives the CA pipeline by hand — MPK,
// BOrth, TSQR, updateHessenberg — over several blocks and verifies the
// fundamental Arnoldi relation the recovered matrix must satisfy:
//
//	A * Q[:, 0:k] == Q[:, 0:k+1] * H[0:k+1, 0:k]
//
// for every prefix k, on both the monomial and Newton bases. This is the
// direct unit test of the change-of-basis algebra that the solver-level
// "CA-GMRES matches GMRES" tests only exercise indirectly.
func TestHessenbergRecoveryIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	n := 80
	// Well-conditioned nonsymmetric sparse matrix.
	entries := make([]sparse.Coord, 0, n*5)
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 5 + rng.Float64()})
		for d := 0; d < 3; d++ {
			entries = append(entries, sparse.Coord{Row: i, Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
	}
	a := sparse.FromCoords(n, n, entries)

	for _, tc := range []struct {
		name   string
		shifts []complex128
	}{
		{"monomial", nil},
		{"newton-real", []complex128{5.5, 4.8, 5.1, 6.0, 4.5, 5.9, 5.3, 4.9}},
		{"newton-pair", []complex128{5.5, complex(5, 0.5), complex(5, -0.5), 4.9, 5.8, complex(5.2, 0.3), complex(5.2, -0.3), 5.0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ng := 2
			s, m := 4, 8
			ctx := gpu.NewContext(ng, gpu.M2090())
			layout := dist.Uniform(n, ng)
			A := dist.Distribute(ctx, a, layout, s)
			mpk := dist.NewMPK(A)
			v := dist.NewVectors(ctx, layout, m+1)

			// Normalized starting vector.
			v0 := make([]float64, n)
			for i := range v0 {
				v0[i] = rng.NormFloat64()
			}
			la.Scal(1/la.Nrm2(v0), v0)
			v.SetColFromHost(0, v0)

			h := la.NewDense(m+1, m)
			borth := ortho.BOrthCGS{}
			tsqr := ortho.CholQR{}
			done := 0
			for done < m {
				steps := s
				if done+steps > m {
					steps = m - done
				}
				var blockShifts []complex128
				if tc.shifts != nil {
					blockShifts = tc.shifts[done : done+steps]
				}
				bhat := mpk.Generate(v, done, steps, blockShifts, "mpk")
				q := done + 1
				prev := v.Window(0, q)
				win := v.Window(q, q+steps)
				c := borth.Project(ctx, prev, win, "borth")
				r, err := tsqr.Factor(ctx, win, "tsqr")
				if err != nil {
					t.Fatal(err)
				}
				newScratch(&gpu.Workspace{}, m, s, ctx.NumDevices).updateHessenberg(h, bhat, c, r, q, steps)
				done += steps
			}

			// Host-side verification of the Arnoldi relation.
			qcols := make([][]float64, m+1)
			for j := 0; j <= m; j++ {
				qcols[j] = v.GatherCol(j)
			}
			// Basis must be orthonormal.
			for i := 0; i <= m; i++ {
				for j := 0; j <= m; j++ {
					d := la.Dot(qcols[i], qcols[j])
					want := 0.0
					if i == j {
						want = 1
					}
					if math.Abs(d-want) > 1e-8 {
						t.Fatalf("basis not orthonormal at (%d,%d): %v", i, j, d)
					}
				}
			}
			for k := 0; k < m; k++ {
				aq := make([]float64, n)
				mulVec(a, aq, qcols[k])
				rec := make([]float64, n)
				for i := 0; i <= k+1; i++ {
					la.Axpy(h.At(i, k), qcols[i], rec)
				}
				diff := 0.0
				norm := la.Nrm2(aq)
				for i := range aq {
					d := aq[i] - rec[i]
					diff += d * d
				}
				if math.Sqrt(diff) > 1e-8*(1+norm) {
					t.Fatalf("Arnoldi relation violated at column %d: residual %v", k, math.Sqrt(diff))
				}
			}
			// H must be upper Hessenberg with positive subdiagonal.
			for j := 0; j < m; j++ {
				for i := j + 2; i <= m; i++ {
					if h.At(i, j) != 0 {
						t.Fatalf("H not Hessenberg at (%d,%d)", i, j)
					}
				}
			}
		})
	}
}

// TestHessenbergRecoveryMatchesExplicitArnoldi compares the recovered H
// against the H produced by running classical Arnoldi directly on the
// same starting vector (monomial basis, exact arithmetic up to roundoff).
func TestHessenbergRecoveryMatchesExplicitArnoldi(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 60
	entries := make([]sparse.Coord, 0, n*4)
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 6})
		entries = append(entries, sparse.Coord{Row: i, Col: (i + 1) % n, Val: rng.NormFloat64()})
		entries = append(entries, sparse.Coord{Row: i, Col: (i + 7) % n, Val: rng.NormFloat64()})
	}
	a := sparse.FromCoords(n, n, entries)
	v0 := make([]float64, n)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	la.Scal(1/la.Nrm2(v0), v0)

	s, m := 3, 6

	// CA pipeline.
	ctx := gpu.NewContext(1, gpu.M2090())
	layout := dist.Uniform(n, 1)
	A := dist.Distribute(ctx, a, layout, s)
	mpk := dist.NewMPK(A)
	v := dist.NewVectors(ctx, layout, m+1)
	v.SetColFromHost(0, v0)
	h := la.NewDense(m+1, m)
	done := 0
	for done < m {
		steps := s
		if done+steps > m {
			steps = m - done
		}
		bhat := mpk.Generate(v, done, steps, nil, "mpk")
		q := done + 1
		c := ortho.BOrthCGS{}.Project(ctx, v.Window(0, q), v.Window(q, q+steps), "borth")
		r, err := ortho.CAQR{}.Factor(ctx, v.Window(q, q+steps), "tsqr")
		if err != nil {
			t.Fatal(err)
		}
		newScratch(&gpu.Workspace{}, m, s, ctx.NumDevices).updateHessenberg(h, bhat, c, r, q, steps)
		done += steps
	}

	// Explicit Arnoldi on the host.
	href := la.NewDense(m+1, m)
	basis := [][]float64{append([]float64(nil), v0...)}
	for k := 0; k < m; k++ {
		w := make([]float64, n)
		mulVec(a, w, basis[k])
		for l := 0; l <= k; l++ {
			hlk := la.Dot(basis[l], w)
			href.Set(l, k, hlk)
			la.Axpy(-hlk, basis[l], w)
		}
		// Reorthogonalize for a clean reference.
		for l := 0; l <= k; l++ {
			d := la.Dot(basis[l], w)
			href.Set(l, k, href.At(l, k)+d)
			la.Axpy(-d, basis[l], w)
		}
		nrm := la.Nrm2(w)
		href.Set(k+1, k, nrm)
		la.Scal(1/nrm, w)
		basis = append(basis, w)
	}

	// The two H matrices agree up to the sign convention of each basis
	// vector. Fix signs by comparing basis vectors directly.
	signs := make([]float64, m+1)
	for j := 0; j <= m; j++ {
		got := v.GatherCol(j)
		d := la.Dot(got, basis[j])
		if d >= 0 {
			signs[j] = 1
		} else {
			signs[j] = -1
		}
		// The vectors themselves must agree up to sign.
		for i := range got {
			if math.Abs(got[i]-signs[j]*basis[j][i]) > 1e-7 {
				t.Fatalf("basis vector %d differs from Arnoldi (beyond sign)", j)
			}
		}
	}
	for k := 0; k < m; k++ {
		for i := 0; i <= k+1; i++ {
			want := signs[i] * signs[k] * href.At(i, k)
			if math.Abs(h.At(i, k)-want) > 1e-7*(1+math.Abs(want)) {
				t.Fatalf("H(%d,%d) = %v, Arnoldi reference %v", i, k, h.At(i, k), want)
			}
		}
	}
}
