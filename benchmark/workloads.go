package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"cagmres/internal/core"
	"cagmres/internal/matgen"
	"cagmres/internal/server"
	"cagmres/internal/sparse"
)

// workload is one set of inputs the benchmark runs. An op is one solve
// to tol 1e-4 (a library call, or one POST /solve for serve-mixed).
type workload struct {
	Name string
	Why  string
	// MinOps is the least number of timed ops in a run, whatever the
	// window length: whole passes over the op list (the right-hand
	// sides, or the request list). SetupReps is how often set-up is
	// repeated; setup_s reports the fastest.
	MinOps    int
	SetupReps int

	// Solve workloads.
	Matrix   string
	Scale    float64
	Ordering core.Ordering
	Solver   string // "ca" or "gmres"
	M, S     int
	Ortho    string
	// Cold prepares the problem (core.NewProblem) inside every op.
	Cold bool
	// RHS is the number of distinct seeded right-hand sides a pass
	// goes through.
	RHS int

	// Serve marks the HTTP workload.
	Serve bool
}

const (
	tol         = 1e-4
	trueTol     = 2e-4 // bound on the host-recomputed residual of the original system
	maxRestarts = 500
	devices     = 3
	warmupOps   = 2
)

var workloads = []workload{
	{
		Name:   "ca-dense-rows",
		Why:    "CA-GMRES(15,60) on a prepared dense-row FEM matrix: iteration-dominated, so sparse/MPK/ortho kernel gains must show here",
		MinOps: 64, SetupReps: 5,
		Matrix: "dielFilterV2real", Scale: 0.004, Ordering: core.Natural,
		Solver: "ca", M: 60, S: 15, Ortho: "CholQR", RHS: 16,
	},
	{
		Name:   "gmres-dense-rows",
		Why:    "GMRES(60) on the same prepared problem: the paper's baseline, same layers used as SpMV + BLAS-2, so a CA-only gain shows as no change",
		MinOps: 64, SetupReps: 5,
		Matrix: "dielFilterV2real", Scale: 0.004, Ordering: core.Natural,
		Solver: "gmres", M: 60, Ortho: "CGS", RHS: 16,
	},
	{
		Name:   "ca-sparse-cold",
		Why:    "core.NewProblem (k-way) then CA-GMRES(15,30) on a tall 5 nnz/row matrix: few iterations, so preparation, Distribute and allocation dominate",
		MinOps: 40, SetupReps: 5,
		Matrix: "G3_circuit", Scale: 0.05, Ordering: core.KWay,
		Solver: "ca", M: 30, S: 15, Ortho: "CholQR", Cold: true, RHS: 8,
	},
	{
		Name:   "serve-mixed",
		Why:    "closed loop of 2 clients POSTing small mixed solves through router and two nodes over loopback: serving layers are a large share of each op",
		MinOps: 100, SetupReps: 4,
		Serve: true,
	},
}

// tailPct is the highest percentile that MinOps ops leave ten samples
// beyond; op_tail_s reports it.
func (w workload) tailPct() int { return 100 * (w.MinOps - 10) / w.MinOps }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) options() core.Options {
	return core.Options{M: w.M, S: w.S, Tol: tol, MaxRestarts: maxRestarts, Ortho: w.Ortho}
}

func (w workload) solve(p *core.Problem, opts core.Options) (*core.Result, error) {
	if w.Solver == "gmres" {
		return core.GMRES(p, opts)
	}
	return core.CAGMRES(p, opts)
}

// normalVector is the seeded standard-normal vector every right-hand
// side of the benchmark is; it is also what the server builds for
// "rhs":"random" with the same seed, which the serve workload's checks
// rely on.
func normalVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// rhsSet returns the workload's count distinct right-hand sides.
func rhsSet(n, count int, seed int64) [][]float64 {
	out := make([][]float64, count)
	for i := range out {
		out[i] = normalVector(n, seed*1000+int64(i))
	}
	return out
}

// Serve-mixed shapes.
const (
	serveKeys     = 8
	serveRequests = 20 // length of the request list, one period of the mix: lcm of the 4, 5 and 10 patterns
	serveClients  = 2
	serveM        = 30
	serveS        = 15
	inlineNX      = 64
)

// serveScale is the generator scale of key k: eight close but distinct
// matrices, so keys outnumber nodes and every shard and the matrix
// cache are exercised.
func serveScale(k int) float64 { return 0.020 * (1 + float64(k)/100) }

// request is one entry of the serve-mixed request list.
type request struct {
	Key      int // 0..serveKeys-1 generator key, or serveKeys for the inline matrix
	Solver   string
	Inline   bool
	IncludeX bool
	RHSSeed  int64
	Body     []byte
}

// combo identifies requests that must report identical iteration counts.
func (r request) combo() string { return fmt.Sprintf("%d/%s", r.Key, r.Solver) }

func inlineMatrix() *sparse.CSR { return matgen.Laplace2D(inlineNX, inlineNX, 0.3) }

// serveRequestList builds the request list, which a window passes over
// again and again: request i is "gmres" when i%4 is 1, posts the inline
// matrix when i%5 is 2, sets include_x when i%10 is 3, and the others
// take the generator keys in turn, so the list holds 5 gmres, 4 inline,
// 2 include_x and each key twice. The seed draws the right-hand side of
// every key and nothing else: which requests overlap in the closed loop
// follows from their order, and the latency percentiles of 20
// overlapping requests follow from that (README.md, "Workloads").
func serveRequestList(seed int64, inlineMM string) []request {
	rng := rand.New(rand.NewSource(seed))
	rhsSeeds := make([]int64, serveKeys+1)
	for k := range rhsSeeds {
		rhsSeeds[k] = 1 + rng.Int63n(1<<31)
	}
	bodies := map[string][]byte{}
	list := make([]request, serveRequests)
	key := 0 // the next generator key
	for i := range list {
		r := request{Solver: "ca", IncludeX: i%10 == 3}
		if i%4 == 1 {
			r.Solver = "gmres"
		}
		if i%5 == 2 {
			r.Inline, r.Key = true, serveKeys
		} else {
			r.Key, key = key%serveKeys, key+1
		}
		r.RHSSeed = rhsSeeds[r.Key]
		id := fmt.Sprintf("%s/%v", r.combo(), r.IncludeX)
		if bodies[id] == nil {
			bodies[id] = r.encode(inlineMM)
		}
		r.Body = bodies[id]
		list[i] = r
	}
	return list
}

func (r request) encode(inlineMM string) []byte {
	req := server.SolveRequest{
		Solver: r.Solver, M: serveM, Tol: tol, MaxRestarts: maxRestarts,
		RHS: json.RawMessage(`"random"`), Seed: r.RHSSeed,
		Wait: true, IncludeX: r.IncludeX,
	}
	if r.Solver == "ca" {
		req.S, req.Ortho = serveS, "CholQR"
	} else {
		req.Ortho = "CGS"
	}
	if r.Inline {
		req.Matrix = server.MatrixSpec{MatrixMarket: inlineMM}
	} else {
		req.Matrix = server.MatrixSpec{Name: "G3_circuit", Scale: serveScale(r.Key)}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of plain fields always encodes
	}
	return body
}

func matrixMarket(a *sparse.CSR) (string, error) {
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		return "", err
	}
	return buf.String(), nil
}
