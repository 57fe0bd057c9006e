// Package cagmres is a pure-Go reproduction of "Improving the Performance
// of CA-GMRES on Multicores with Multiple GPUs" (Yamazaki, Anzt, Tomov,
// Hoemmen, Dongarra — IPDPS 2014).
//
// It provides restarted GMRES(m) and communication-avoiding CA-GMRES(s, m)
// solvers for sparse nonsymmetric linear systems, running on a simulated
// multi-GPU node: every device executes for real on its own goroutine
// (results are numerically exact), while CPU<->GPU communication and
// device kernel costs are charged to a ledger through a cost model
// calibrated to the paper's testbed (three NVIDIA M2090 GPUs on PCIe 2.0
// with two 8-core Sandy Bridge CPUs). The package re-exports the pieces a
// downstream user needs; the full machinery lives under internal/:
//
//	internal/la     dense kernels (BLAS-1/2/3, QR, Cholesky, SVD, Leja)
//	internal/sparse CSR and the SELL-C device format, SpMV, balancing, MatrixMarket
//	internal/graph  RCM ordering and k-way partitioning
//	internal/gpu    the simulated device runtime and cost ledger
//	internal/dist   distributed vectors/matrices and the matrix powers kernel
//	internal/ortho  the five TSQR strategies (MGS, CGS, CholQR, SVQR, CAQR)
//	internal/core   the GMRES and CA-GMRES solvers
//	internal/matgen synthetic analogues of the paper's test matrices
//	internal/bench  drivers that regenerate every figure of the evaluation
//
// Quick start:
//
//	ctx := cagmres.NewContext(3) // three simulated GPUs
//	A := cagmres.Laplace2D(100, 100, 0.3)
//	b := make([]float64, A.Rows)
//	for i := range b { b[i] = 1 }
//	p, _ := cagmres.NewProblem(ctx, A, b, cagmres.KWay, true)
//	res, _ := cagmres.CAGMRES(p, cagmres.Options{M: 60, S: 10, Ortho: "CholQR"})
//	fmt.Println(res.Converged, res.RelRes)
package cagmres

import (
	"io"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/matgen"
	"cagmres/internal/ortho"
	"cagmres/internal/profile"
	"cagmres/internal/sparse"
)

// Re-exported solver types. See internal/core for full documentation.
type (
	// Options configures GMRES and CA-GMRES (restart length M, CA step
	// S, tolerance, orthogonalization strategy, basis choice). Set
	// Options.Ctx to a context.Context to make the solve cancelable:
	// the solvers check it at every restart boundary and return the
	// best-so-far Result with Canceled set once it is done.
	Options = core.Options
	// Result reports a solve: solution, convergence, restart/iteration
	// counts, residual history, the modeled cost ledger, and whether
	// the solve was canceled via Options.Ctx.
	Result = core.Result
	// Problem is a prepared linear system (ordered, balanced,
	// distributed).
	Problem = core.Problem
	// Ordering selects the pre-distribution permutation.
	Ordering = core.Ordering
	// CostModel holds the simulated hardware constants.
	CostModel = gpu.CostModel
	// Profile is a full machine description: cost model plus interconnect
	// topology. Shipped profiles live in internal/profile (m2090,
	// a100-pcie, h100-nvlink); Options.Profile re-targets a solve.
	Profile = gpu.Profile
	// Topology describes the device-to-device fabric: a kind plus peer
	// link constants. Peer kinds route halo exchange device-to-device
	// instead of bouncing it through the host.
	Topology = gpu.Topology
	// TopoKind names an interconnect shape (host-hub, pcie-switch,
	// nvlink-ring, all-to-all).
	TopoKind = gpu.TopoKind
	// Cluster is the optional second tier of a Profile: devices grouped
	// into simulated compute nodes joined by an inter-node Fabric. The
	// zero value keeps the single-node machine.
	Cluster = gpu.Cluster
	// Fabric holds the inter-node interconnect constants (α/β of one
	// node uplink) of a clustered Profile.
	Fabric = gpu.Fabric
	// FabricKind names an inter-node interconnect generation (ib-hdr,
	// ib-edr, ethernet-100g, ethernet-25g).
	FabricKind = gpu.FabricKind
	// PrecisionReport summarizes what the mixed/adaptive precision
	// policy did during a solve (window counts per width, compressed
	// transfers, FP64 refinement steps). Result.Precision carries one
	// for narrow runs; nil for fp64.
	PrecisionReport = core.PrecisionReport
	// Context is the simulated multi-GPU node.
	Context = gpu.Context
	// Matrix is a sparse matrix in compressed sparse row form.
	Matrix = sparse.CSR
	// Coord is a coordinate-format entry for matrix assembly.
	Coord = sparse.Coord
)

// Ordering values: natural block rows, reverse Cuthill-McKee, or k-way
// graph partitioning (the paper's NAT / RCM / KWY configurations).
const (
	Natural    = core.Natural
	RCM        = core.RCM
	KWay       = core.KWay
	Hypergraph = core.Hypergraph
)

// Options.Precision values: the historical full-double pipeline, fixed
// fp32 basis generation with FP64 iterative refinement at restart
// boundaries, or the tighten-only adaptive schedule.
const (
	PrecisionFP64     = core.PrecisionFP64
	PrecisionMixed    = core.PrecisionMixed
	PrecisionAdaptive = core.PrecisionAdaptive
)

// NormalizePrecision canonicalizes an Options.Precision value: the
// empty string is fp64, known modes pass through, anything else errors.
func NormalizePrecision(p string) (string, error) { return core.NormalizePrecision(p) }

// NewContext creates a simulated node with ng GPUs using the calibrated
// M2090 cost model of the paper's testbed.
func NewContext(ng int) *Context { return gpu.NewContext(ng, gpu.M2090()) }

// NewContextWithProfile creates a simulated node from a full machine
// description — cost model plus interconnect topology. Profiles with a
// peer-to-peer topology route device-to-device halo traffic over the
// fabric instead of bouncing it through the host. For a custom cost
// model, resolve a shipped profile with MachineProfile and change its
// Model before passing it here.
func NewContextWithProfile(ng int, p Profile) *Context {
	return gpu.NewContext(ng, p)
}

// MachineProfile resolves a shipped machine profile by name: "m2090"
// (the paper's testbed, host-hub PCIe 2.0), "a100-pcie" (PCIe-switch
// peer routing) or "h100-nvlink" (NVLink ring). Names are
// case-insensitive.
func MachineProfile(name string) (Profile, error) { return profile.ByName(name) }

// MachineProfiles lists the shipped machine profile names.
func MachineProfiles() []string { return profile.Names() }

// NewProblem prepares a linear system A x = b: applies the ordering,
// distributes block rows over the context's devices, and optionally
// balances the matrix (rows then columns scaled by their norms, as the
// paper does before iterating).
func NewProblem(ctx *Context, a *Matrix, b []float64, ordering Ordering, balance bool) (*Problem, error) {
	return core.NewProblem(ctx, a, b, ordering, balance)
}

// GMRES solves with restarted GMRES(m); Options.Ortho picks the Arnoldi
// orthogonalization ("MGS" or "CGS"). A non-nil Options.Ctx cancels the
// solve at the next restart boundary (Result.Canceled).
func GMRES(p *Problem, opts Options) (*Result, error) { return core.GMRES(p, opts) }

// CAGMRES solves with communication-avoiding GMRES(s, m); Options.Ortho
// picks the TSQR strategy ("MGS", "CGS", "CholQR", "SVQR", "CAQR",
// optionally "2x"-prefixed for reorthogonalization). A non-nil
// Options.Ctx cancels the solve at the next restart or matrix-powers
// window boundary (Result.Canceled).
func CAGMRES(p *Problem, opts Options) (*Result, error) { return core.CAGMRES(p, opts) }

// ResidualNorm computes ||b - A x|| / ||b|| host-side for verification.
func ResidualNorm(a *Matrix, b, x []float64) float64 { return core.ResidualNorm(a, b, x) }

// RitzValues approximates the extreme eigenvalues of the problem's matrix
// with an m-step Arnoldi process, built either one vector at a time
// (Options.S <= 1) or in communication-avoiding matrix-powers windows
// (Options.S > 1) — the same kernels as the linear solvers, applied to
// the eigenvalue problem. On a context with an armed fault plan
// (Context.InjectFaults), a device death or an exhausted transfer
// retry is returned as the error (*gpu.DeviceLostError,
// *gpu.TransferError), never raised as a panic; unlike the solvers, the
// eigen path does not re-partition and resume.
func RitzValues(p *Problem, opts Options, start []float64) ([]complex128, error) {
	return core.RitzValues(p, opts, start)
}

// FromCoords assembles a CSR matrix from coordinate entries. Duplicates
// are summed left to right in the order they appear in entries, which is
// only read, never sorted in place. A coordinate outside rows x cols
// panics before any work is done.
func FromCoords(rows, cols int, entries []Coord) *Matrix {
	return sparse.FromCoords(rows, cols, entries)
}

// ReadMatrixMarket parses a MatrixMarket coordinate file (the SuiteSparse
// distribution format).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMatrixMarket(r) }

// WriteMatrixMarket writes a matrix in MatrixMarket coordinate format.
func WriteMatrixMarket(w io.Writer, a *Matrix) error { return sparse.WriteMatrixMarket(w, a) }

// Laplace2D builds the 5-point Laplacian on an nx x ny grid with an
// optional convection term (nonsymmetric when nonzero).
func Laplace2D(nx, ny int, convection float64) *Matrix {
	return matgen.Laplace2D(nx, ny, convection)
}

// Laplace3D builds the 7-point Laplacian on an nx x ny x nz grid.
func Laplace3D(nx, ny, nz int, convection float64) *Matrix {
	return matgen.Laplace3D(nx, ny, nz, convection)
}

// GenerateMatrix builds one of the paper's synthetic matrix analogues by
// name: "cant", "G3_circuit", "dielFilterV2real", or "nlpkkt120". Scale
// 1.0 reproduces the published dimensions.
func GenerateMatrix(name string, scale float64) (*Matrix, error) {
	m, err := matgen.ByName(name, scale)
	if err != nil {
		return nil, err
	}
	return m.A, nil
}

// TSQR is a tall-skinny QR strategy over a distributed window (one of
// the five the paper studies). Obtain instances with TSQRByName and plug
// them into Options.OrthoImpl, or use them directly through
// internal/ortho's Factor interface. Called directly, an instance returns
// an R that is the caller's to keep; a solve binds its own copy of the
// value to per-attempt memory, so one value may serve concurrent solves.
type TSQR = ortho.TSQR

// TSQRErrors holds the three error norms of Figure 13 for one
// factorization.
type TSQRErrors = ortho.Errors

// TSQRByName returns a TSQR strategy: MGS, CGS, CholQR, SVQR, CAQR,
// optionally prefixed with "2x" for reorthogonalization.
func TSQRByName(name string) (TSQR, error) { return ortho.ByName(name) }

// AllTSQR returns one instance of each base strategy in the paper's
// order.
func AllTSQR() []TSQR { return ortho.All() }

// MeasureTSQR computes the Figure-13 error norms of a factorization:
// q holds the per-device panels after Factor, orig the pre-factor copies
// (see CloneWindow), r the returned factor.
func MeasureTSQR(q, orig []*Dense, r *Dense2) TSQRErrors { return ortho.Measure(q, orig, r) }

// CloneWindow deep-copies a distributed window before factoring it, so
// the original is available for MeasureTSQR.
func CloneWindow(w []*Dense) []*Dense { return ortho.CloneWindow(w) }

// Dense is a column-major dense matrix (the per-device panel type).
type Dense = la.Dense

// Dense2 aliases Dense for the small square factors (R matrices).
type Dense2 = la.Dense

// RandomTallSkinny builds an n x c matrix with prescribed 2-norm
// condition number, the input of the TSQR stability studies.
func RandomTallSkinny(n, c int, cond float64, seed int64) *Dense {
	return matgen.RandomTallSkinny(n, c, cond, seed)
}

// SplitRows scatters a host matrix into ng per-device row panels, the
// shape the TSQR strategies consume. The split matches a Uniform layout.
func SplitRows(v *Dense, ng int) []*Dense {
	n := v.Rows
	base, rem := n/ng, n%ng
	out := make([]*Dense, ng)
	r0 := 0
	for d := 0; d < ng; d++ {
		rows := base
		if d < rem {
			rows++
		}
		p := la.NewDense(rows, v.Cols)
		for j := 0; j < v.Cols; j++ {
			copy(p.Col(j), v.Col(j)[r0:r0+rows])
		}
		out[d] = p
		r0 += rows
	}
	return out
}
