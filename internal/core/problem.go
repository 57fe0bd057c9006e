// Package core implements the paper's solvers: restarted GMRES(m) with
// MGS or CGS Arnoldi orthogonalization, and CA-GMRES(s, m) built from the
// matrix powers kernel (monomial or Newton basis with Leja-ordered
// shifts), block orthogonalization, and a pluggable TSQR strategy — all on
// the simulated multi-GPU runtime with full communication accounting.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/graph"
	"cagmres/internal/la"
	"cagmres/internal/sparse"
)

// Ordering selects how the matrix is permuted before block-row
// distribution, the paper's NAT / RCM / KWY configurations.
type Ordering string

// Ordering values. Hypergraph is the conclusion's future-work
// partitioner: it minimizes the exact SpMV communication volume (the
// column-net connectivity metric) instead of the edge-cut approximation.
const (
	Natural    Ordering = "natural"
	RCM        Ordering = "rcm"
	KWay       Ordering = "kway"
	Hypergraph Ordering = "hypergraph"
)

// ParseOrdering is the one list of ordering names Prepare, the server and
// the CLI accept.
func ParseOrdering(name string) (Ordering, error) {
	switch o := Ordering(name); o {
	case Natural, RCM, KWay, Hypergraph:
		return o, nil
	}
	return "", fmt.Errorf("core: unknown ordering %q", name)
}

func checkSquare(a *sparse.CSR) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("core: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	return nil
}

// Problem is a linear system prepared for the distributed solvers: the
// (optionally balanced and reordered) matrix, its layout over the
// simulated devices, and the right-hand side in the permuted/balanced
// coordinates. Solve results are mapped back to the original coordinates.
type Problem struct {
	Ctx    *gpu.Context
	A      *sparse.CSR // permuted (and balanced) matrix
	Layout *dist.Layout
	B      []float64 // permuted (and balanced) right-hand side

	perm     []int     // perm[new] = old; nil for identity
	rowScale []float64 // nil if not balanced
	colScale []float64
	jacobi   []float64 // right-preconditioner diagonal; nil if unused

	// plan holds the distributed forms of A over Layout. It belongs to
	// the (A, Layout) pair: copies of the problem that keep both share it,
	// anything that changes either starts a fresh one.
	plan *distPlan
}

// distPlan memoizes dist.Distribute(A, Layout, s) per MPK depth s, so the
// halo search and the extended device matrices are built on the first
// solve that needs them and reused by every later solve of the problem —
// the paper's set-up phase, paid once. It keeps the maxPlanDepths most
// recently used depths (a served problem sees whatever step sizes its
// clients send) and is safe for concurrent solves on copies of one
// problem.
type distPlan struct {
	mu     sync.Mutex
	depths []*dist.Matrix // least recently used first
}

const maxPlanDepths = 4

// distributed returns A distributed over p.Layout for MPK depth s, bound
// to p.Ctx.
func (p *Problem) distributed(s int) *dist.Matrix {
	pl := p.plan
	pl.mu.Lock()
	defer pl.mu.Unlock()
	i := slices.IndexFunc(pl.depths, func(m *dist.Matrix) bool { return m.S == s })
	if i < 0 {
		if len(pl.depths) == maxPlanDepths {
			pl.depths = slices.Delete(pl.depths, 0, 1)
		}
		pl.depths = append(pl.depths, dist.Distribute(p.Ctx, p.A, p.Layout, s))
		i = len(pl.depths) - 1
	}
	m := pl.depths[i]
	pl.depths = append(slices.Delete(pl.depths, i, i+1), m) // most recently used last
	return m.WithContext(p.Ctx)
}

// NewProblem prepares a linear system: applies the requested ordering,
// builds a balanced block-row layout over ng devices, and (optionally)
// balances the matrix the way the paper does (rows then columns scaled by
// their norms, Section VI). It is Prepare followed by SetB, and like
// Prepare a pure function of its arguments: nothing is cached behind it.
func NewProblem(ctx *gpu.Context, a *sparse.CSR, b []float64, ordering Ordering, balance bool) (*Problem, error) {
	p, err := Prepare(ctx, a, ordering, balance)
	if err != nil {
		return nil, err
	}
	if err := p.SetB(b); err != nil {
		return nil, err
	}
	return p, nil
}

// Prepare does the right-hand-side-independent part of NewProblem —
// ordering, partition, layout, balancing — and returns a problem with no
// right-hand side yet: SetB must follow before a solve. Everything a
// solve then reads from the result is immutable, so one prepared problem
// can back many concurrent solves through OnContext.
func Prepare(ctx *gpu.Context, a *sparse.CSR, ordering Ordering, balance bool) (*Problem, error) {
	if err := checkSquare(a); err != nil {
		return nil, err
	}
	ng := ctx.NumDevices
	n := a.Rows

	p := &Problem{Ctx: ctx, plan: &distPlan{}}
	switch ordering {
	case Natural, "":
		p.A = a.Clone()
		p.Layout = dist.Uniform(n, ng)
	case RCM:
		p.perm = graph.RCM(graph.FromMatrix(a))
		p.A = a.Permute(p.perm)
		p.Layout = dist.Uniform(n, ng)
	case KWay, Hypergraph:
		var part *graph.Partition
		if ordering == KWay {
			part = graph.KWay(graph.FromMatrix(a), ng, 1)
		} else {
			part = graph.PartitionHypergraph(a, ng, 1)
		}
		perm, bounds := part.Order()
		p.perm = perm
		p.A = a.Permute(perm)
		p.Layout = dist.NewLayout(n, bounds)
	default:
		_, err := ParseOrdering(string(ordering))
		return nil, err
	}
	if balance {
		p.rowScale, p.colScale = sparse.Balance(p.A)
	}
	return p, nil
}

// SetB replaces the right-hand side with b, given in ORIGINAL
// coordinates, re-applying the problem's permutation and row scaling.
// It is what lets a pooled server reuse one prepared Problem — the
// ordering, partition and balance work — across many right-hand sides:
// the batching path of internal/sched solves a whole batch of
// compatible requests against a single preparation.
func (p *Problem) SetB(b []float64) error {
	if len(b) != p.A.Rows {
		return fmt.Errorf("core: rhs length %d for n=%d", len(b), p.A.Rows)
	}
	bp := make([]float64, len(b))
	if p.perm != nil {
		for newIdx, old := range p.perm {
			bp[newIdx] = b[old]
		}
	} else {
		copy(bp, b)
	}
	if p.rowScale != nil {
		sparse.ApplyRowScale(p.rowScale, bp)
	}
	p.B = bp
	return nil
}

// Repartition re-targets the prepared problem at a different (typically
// smaller) device context — the self-healing path after a device loss.
// The permutation, balance and preconditioning stay as they are (they
// are properties of the matrix, not of the devices); only the block-row
// layout is re-cut, uniformly across the new context's devices.
// Partition-derived layouts (kway, hypergraph) degrade to uniform cuts
// of the same permuted matrix, which keeps the solve correct at the cost
// of some extra halo volume — the price of surviving.
func (p *Problem) Repartition(ctx *gpu.Context) *Problem {
	np := *p
	np.Ctx = ctx
	np.Layout = dist.Uniform(p.A.Rows, ctx.NumDevices)
	np.plan = &distPlan{} // distributions follow the layout
	return &np
}

// OnContext returns a copy of the prepared problem bound to another
// device context of the same device count, sharing the matrix, layout,
// scalings and distributed plan — everything that is read-only during a
// solve — but not the right-hand side: the copy has none until SetB. It
// is how a server hands one preparation to many leases at once.
func (p *Problem) OnContext(ctx *gpu.Context) (*Problem, error) {
	if ctx.NumDevices != p.Layout.NumDevices() {
		return nil, fmt.Errorf("core: problem laid out for %d devices, context has %d",
			p.Layout.NumDevices(), ctx.NumDevices)
	}
	np := *p
	np.Ctx = ctx
	np.B = nil
	return &np, nil
}

// ApplyJacobi right-preconditions the prepared system with the inverse
// diagonal: the solvers then iterate on A*D^{-1} y = b and the solution is
// x = D^{-1} y. Diagonal (Jacobi) preconditioning is the one classical
// preconditioner that composes transparently with the matrix powers
// kernel — A*D^{-1} has exactly A's sparsity graph, so the halo sets,
// boundary submatrices and communication structure are unchanged
// (Hoemmen's thesis discusses preconditioned MPK; general preconditioners
// break the communication-avoiding property). Zero diagonal entries are
// left unscaled. Call at most once, before solving.
func (p *Problem) ApplyJacobi() {
	if p.jacobi != nil {
		panic("core: ApplyJacobi called twice")
	}
	n := p.A.Rows
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		v := p.A.At(i, i)
		if v == 0 {
			d[i] = 1
		} else {
			d[i] = v
		}
	}
	// Column-scale in place: (A D^{-1})_ij = a_ij / d_j.
	for k, c := range p.A.ColIdx {
		p.A.Val[k] /= d[c]
	}
	p.jacobi = d
	p.plan = &distPlan{} // the values changed under any earlier distribution
}

// solution reads column j of v, a solution of the prepared (permuted,
// balanced, possibly preconditioned) system, into a new vector in the
// original coordinates in one pass off the device blocks: each entry is
// divided by the Jacobi diagonal, unscaled by the column scale and
// scattered through the permutation.
func (p *Problem) solution(v *dist.Vectors, j int) []float64 {
	x := make([]float64, v.Layout.N)
	for d, blk := range v.Local {
		own0 := v.Layout.OwnStart(d)
		for k, xi := range blk.Col(j) {
			i := own0 + k
			if p.jacobi != nil {
				xi /= p.jacobi[i]
			}
			if p.colScale != nil {
				xi *= p.colScale[i]
			}
			if p.perm != nil {
				x[p.perm[i]] = xi
			} else {
				x[i] = xi
			}
		}
	}
	return x
}

// ResidualNorm computes ||b - A x|| / ||b|| in the ORIGINAL coordinates
// for a solution in original coordinates (host-side verification). Each
// row's b_i - (Ax)_i is summed as it is formed, so nothing is allocated.
// When those plain sums of squares underflow (Σb² = 0 with b nonzero) or
// overflow (a non-finite ratio of finite entries), the norms are formed
// again with la.Nrm2's scaling, so a tiny or huge b is not misreported.
func ResidualNorm(a *sparse.CSR, b, x []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		panic(fmt.Sprintf("core: ResidualNorm shape mismatch A=%dx%d x=%d b=%d", a.Rows, a.Cols, len(x), len(b)))
	}
	var rn, bn float64
	for i, bi := range b {
		d := bi - rowDot(a, i, x)
		rn += d * d
		bn += bi * bi
	}
	if bn == 0 {
		if la.Nrm2(b) == 0 { // b = 0: the absolute residual
			return math.Sqrt(rn)
		}
	} else if q := rn / bn; finite(q) || !finite(a.Val...) || !finite(b...) || !finite(x...) {
		return math.Sqrt(q)
	}
	r := make([]float64, len(b))
	for i, bi := range b {
		r[i] = bi - rowDot(a, i, x)
	}
	return la.Nrm2(r) / la.Nrm2(b)
}

// rowDot returns (A x)_i, summed in row order.
func rowDot(a *sparse.CSR, i int, x []float64) float64 {
	var ax float64
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		ax += a.Val[k] * x[a.ColIdx[k]]
	}
	return ax
}

// finite reports whether every entry of v is finite.
func finite(v ...float64) bool {
	for _, e := range v {
		if math.IsInf(e, 0) || math.IsNaN(e) {
			return false
		}
	}
	return true
}
