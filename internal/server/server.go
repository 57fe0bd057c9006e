// Package server exposes the internal/sched scheduler as an HTTP JSON
// API — solver-as-a-service, its routes the table in New — mounted next
// to the internal/obs surface (/metrics, /metrics.json, /trace.json,
// /debug/pprof), so one scrape sees both the scheduler instruments and
// whatever the solvers recorded. Backpressure maps to HTTP: a full
// admission queue answers 429 with a Retry-After header, a draining
// scheduler answers 503.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"cagmres/internal/core"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/profile"
	"cagmres/internal/sched"
	"cagmres/internal/sparse"
)

// SolveRequest is the POST /solve body.
type SolveRequest struct {
	Matrix MatrixSpec `json:"matrix"`
	// Solver is "ca" (default) or "gmres".
	Solver string `json:"solver,omitempty"`
	// Solver parameters; zero values take the library defaults.
	M           int     `json:"m,omitempty"`
	S           int     `json:"s,omitempty"`
	Tol         float64 `json:"tol,omitempty"`
	MaxRestarts int     `json:"max_restarts,omitempty"`
	Ortho       string  `json:"ortho,omitempty"`
	BOrth       string  `json:"borth,omitempty"`
	Basis       string  `json:"basis,omitempty"`
	// Precision is "fp64" (default), "mixed", or "adaptive". Narrowed
	// modes converge to the same FP64 tolerance — the solver only ever
	// declares convergence from a full-double true residual — but spend
	// less modeled time and bandwidth on the basis pipeline.
	Precision string `json:"precision,omitempty"`
	// Ordering is natural, rcm, kway (default) or hypergraph; Balance
	// defaults to true.
	Ordering string `json:"ordering,omitempty"`
	Balance  *bool  `json:"balance,omitempty"`
	// RHS is "ones" (default), "random" (deterministic from Seed), or a
	// JSON array of length n.
	RHS  json.RawMessage `json:"rhs,omitempty"`
	Seed int64           `json:"seed,omitempty"`
	// Priority orders dispatch (higher first); DeadlineMS bounds queue
	// wait plus solve time, after which the job is canceled.
	Priority   int   `json:"priority,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Wait blocks the request until the job finishes. IncludeX returns
	// the solution vector (it can be large).
	Wait     bool `json:"wait,omitempty"`
	IncludeX bool `json:"include_x,omitempty"`
	// Profile selects the machine description the solve is costed on: a
	// profile.Spec object ({"base": "a100-pcie", "topology":
	// "nvlink-ring", ...}). Omitted, the leased context keeps the
	// daemon's configured profile. Profiles change modeled time only —
	// the numerical result is identical under every profile.
	Profile json.RawMessage `json:"profile,omitempty"`
}

// MatrixSpec names a built-in generator (matgen.ByName) or carries an
// inline MatrixMarket body.
type MatrixSpec struct {
	Name         string  `json:"name,omitempty"`
	Scale        float64 `json:"scale,omitempty"`
	MatrixMarket string  `json:"matrixmarket,omitempty"`
}

// scale returns the generator scale, defaulted when the spec names none.
func (m MatrixSpec) scale() float64 {
	if m.Scale == 0 {
		return 0.01
	}
	return m.Scale
}

// Key returns the identity of the matrix the spec describes: the key of
// the server's matrix cache and of the scheduler's batches, and the
// routing key of the cluster tier — requests for the same matrix land on
// the same backend, which is what makes them batchable into shared
// leases there.
func (m MatrixSpec) Key() (string, error) {
	switch {
	case m.MatrixMarket != "":
		h := fnv.New64a()
		_, _ = h.Write([]byte(m.MatrixMarket))
		return fmt.Sprintf("mm:%x", h.Sum64()), nil
	case m.Name != "":
		return fmt.Sprintf("gen:%s@%g", m.Name, m.scale()), nil
	}
	return "", fmt.Errorf("matrix spec needs name or matrixmarket")
}

// JobJSON is the wire form of a job, returned by POST /solve and
// GET /jobs/{id}.
type JobJSON struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Priority int    `json:"priority"`
	// Terminal-state fields.
	Converged      bool      `json:"converged,omitempty"`
	Canceled       bool      `json:"canceled,omitempty"`
	RelRes         float64   `json:"relres,omitempty"`
	Restarts       int       `json:"restarts,omitempty"`
	Iters          int       `json:"iters,omitempty"`
	ModeledSeconds float64   `json:"modeled_seconds,omitempty"`
	WaitSeconds    float64   `json:"wait_seconds,omitempty"`
	ServiceSeconds float64   `json:"service_seconds,omitempty"`
	X              []float64 `json:"x,omitempty"`
	Error          string    `json:"error,omitempty"`
	// Code classifies terminal failures with the obs.ErrorBody code
	// vocabulary (e.g. numerical_breakdown), so async pollers get the
	// same machine-readable verdict a waiting client gets via the
	// response status.
	Code string `json:"code,omitempty"`
	// Attempts > 1 means the scheduler re-queued the job after a lease
	// fault; Faults reports what the winning solve survived.
	Attempts int         `json:"attempts,omitempty"`
	Faults   *FaultsJSON `json:"faults,omitempty"`
	// Precision reports what the precision policy did, for jobs that
	// requested a narrowed mode (absent for fp64 jobs).
	Precision *PrecisionJSON `json:"precision,omitempty"`
	// TraceID correlates the job with its request trace
	// (/jobs/{id}/trace.json, /jobs/{id}/spans.jsonl) and with the
	// submitter's own tracing when a traceparent header was sent.
	TraceID string `json:"trace_id,omitempty"`
}

// PrecisionJSON is the wire form of core.PrecisionReport: the mode a
// narrowed solve ran, the windows generated at each width, and the
// refinement/compression activity.
type PrecisionJSON struct {
	Mode                string `json:"mode"`
	WindowsFP64         int    `json:"windows_fp64"`
	WindowsFP32         int    `json:"windows_fp32"`
	CompressedTransfers int    `json:"compressed_transfers"`
	Refinements         int    `json:"refinements"`
	FinalLevel          string `json:"final_level"`
}

// FaultsJSON is the wire form of core.FaultReport: the faults a solve
// observed and the recovery actions it took.
type FaultsJSON struct {
	DevicesLost        []int `json:"devices_lost,omitempty"`
	Repartitions       int   `json:"repartitions,omitempty"`
	CheckpointRestores int   `json:"checkpoint_restores,omitempty"`
	TransferFaults     int   `json:"transfer_faults,omitempty"`
	TransferRetries    int   `json:"transfer_retries,omitempty"`
}

// Healthz is the GET /healthz body: the scheduler's snapshot plus what
// only the server knows.
type Healthz struct {
	OK bool `json:"ok"`
	// Profile and Topology name the machine description pooled contexts
	// are configured with (per-request profiles override it per solve).
	Profile  string `json:"profile,omitempty"`
	Topology string `json:"topology,omitempty"`
	// SIMD is the simd label of host_kernels_info: "avx2", or "none" on a
	// node whose host kernels fell back to the Go loops.
	SIMD string `json:"simd"`
	sched.Snapshot
	// SLODegraded mirrors the SLO engine's multi-window burn-rate alarm:
	// some class is burning error budget above threshold on both the
	// fast and the slow window. SLO carries the full per-class report
	// (/slo returns the same body on its own).
	SLODegraded bool           `json:"slo_degraded"`
	SLO         *obs.SLOReport `json:"slo,omitempty"`
}

// Error codes of obs.ErrorBody.Code only the daemon gives; the ones both
// tiers give are obs.Code*.
const (
	codeQueueFull = "queue_full"
	codeDraining  = "draining"
	codeInternal  = "internal"
	// codeBrownoutShed: SLO-driven brownout is shedding this priority
	// class; retry later or with a higher priority.
	codeBrownoutShed = "brownout_shed"
	// codeDeadlineInfeasible: the client deadline cannot cover a solve,
	// so the job was refused instead of admitted dead on arrival.
	codeDeadlineInfeasible = "deadline_infeasible"
	// codeNumericalBreakdown: the solve hit NaN/±Inf and no retry will
	// behave differently — a client-data error, not a server fault.
	codeNumericalBreakdown = "numerical_breakdown"
)

// MaxBodyBytes bounds the body of POST /solve, on the daemon and on the
// router in front of it: no client can make either buffer more than this
// for one request. 64 MiB holds an inline MatrixMarket matrix of a few
// million entries; larger systems are named, not shipped.
const MaxBodyBytes = 64 << 20

// eagerBodyBytes bounds the buffer ReadBody allocates for a declared
// length before any of the body has arrived: a longer body is read as it
// arrives, so no connection holds more than this for bytes not sent (the
// inline MatrixMarket bodies of a served mix are ≈ 600 KB).
const eagerBodyBytes = 1 << 20

// ReadBody reads the body of a POST /solve, at most MaxBodyBytes of it,
// for the daemon and the router alike. A declared length up to
// eagerBodyBytes is read into one buffer of that size, checked to end
// there; a declared length over MaxBodyBytes is refused before anything
// is read or allocated, with the same *http.MaxBytesError an over-long
// read gives. Any other body (chunked, or long) is read growing.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > MaxBodyBytes {
		return nil, &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if r.ContentLength < 0 || r.ContentLength > eagerBodyBytes {
		return io.ReadAll(body)
	}
	buf := make([]byte, r.ContentLength+1) // one byte over, to see the end
	n, err := io.ReadFull(body, buf)
	if int64(n) == r.ContentLength && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return buf[:n], nil
	}
	if err == nil {
		err = errors.New("body longer than its Content-Length")
	}
	return nil, err
}

// Server routes HTTP traffic to a scheduler.
type Server struct {
	sched *sched.Scheduler
	mux   *http.ServeMux

	// defaultPrecision is applied to solve bodies that omit the
	// precision field (SetDefaultPrecision; empty means fp64, the
	// historical behavior). Requests that name a mode always win.
	defaultPrecision string

	// matrices caches built matrices by MatrixSpec.Key, so requests for
	// the same matrix share one CSR and a miss is built once however many
	// requests wait for it.
	matrices *sched.Cache[string, *sparse.CSR]

	simd string // obs.HostKernels, for /healthz
}

func newMatrixCache(reg *obs.Registry) *sched.Cache[string, *sparse.CSR] {
	return sched.NewCache[string, *sparse.CSR](reg, "server_matrix_cache_total",
		"Matrix cache lookups and dropped entries, by result.")
}

// New builds the handler: the solve API plus the obs surface from the
// given registry (reg must be the one the scheduler's Config.Registry
// points at, so scrapes see the scheduler instruments).
func New(s *sched.Scheduler, reg *obs.Registry) *Server {
	srv := &Server{sched: s, mux: http.NewServeMux(), matrices: newMatrixCache(reg), simd: obs.HostKernels(reg)}
	obs.Mount(srv.mux, []obs.Route{
		// Submit a solve (generator spec or inline MatrixMarket body);
		// ?wait or "wait": true blocks for the result, otherwise the job
		// id comes back at once. A W3C traceparent header is adopted as
		// the job's trace id and echoed back.
		{Method: http.MethodPost, Path: "/solve", Handler: srv.handleSolve},
		// A job's state and result, and its sub-resources: trace.json,
		// the stitched Chrome trace (request/queue/lease spans, solver
		// phases, the solve's device ledger lanes), and spans.jsonl, the
		// raw span tree. A path without an id names an unknown job.
		{Method: http.MethodGet, Path: "/jobs/{id}", Handler: srv.handleJob},
		{Method: http.MethodGet, Path: "/jobs/{id}/{sub...}", Handler: srv.handleJob},
		{Method: http.MethodGet, Path: "/jobs/", Handler: srv.handleJob},
		// Per-class error budgets and burn rates; liveness, the pool and
		// queue snapshot and SLO degradation.
		{Method: http.MethodGet, Path: "/slo", Handler: srv.handleSLO},
		{Method: http.MethodGet, Path: "/healthz", Handler: srv.handleHealthz},
	}, obs.WriteError)
	if reg != nil {
		srv.mux.Handle("/", obs.Handler(reg, nil))
	}
	return srv
}

// SetDefaultPrecision sets the precision mode applied to solve bodies
// that omit the field (the cagmresd -precision flag). The mode is
// normalized up front so a bad flag fails at startup, not per request;
// an explicit precision in a request always overrides the default.
func (s *Server) SetDefaultPrecision(mode string) error {
	p, err := core.NormalizePrecision(mode)
	if err != nil {
		return err
	}
	s.defaultPrecision = p
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleSLO serves the SLO engine's current report: per-class error
// budgets and fast/slow burn rates, the signal an autoscaler consumes.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.sched.SLO().Report())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.sched.Snapshot()
	prof := s.sched.Pool().Profile()
	slo := s.sched.SLO().Report()
	obs.WriteJSON(w, http.StatusOK, Healthz{OK: !snap.Draining, Profile: prof.Name, Topology: string(prof.Topo.Kind),
		SIMD: s.simd, Snapshot: snap, SLODegraded: slo.Degraded, SLO: &slo})
}

// matrix resolves a spec through the cache, so concurrent and repeated
// requests for the same matrix share one CSR — which is also what makes
// them batchable (sched matches on the key, the solve reads the shared
// matrix). A spec that fails to build is dropped again: bad bodies hold
// no slot.
func (s *Server) matrix(spec MatrixSpec) (*sparse.CSR, string, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, "", err
	}
	a, _, err := s.matrices.Get(key, func() (*sparse.CSR, error) {
		if spec.MatrixMarket != "" {
			return sparse.ReadMatrixMarket(strings.NewReader(spec.MatrixMarket))
		}
		m, err := matgen.ByName(spec.Name, spec.scale())
		if err != nil {
			return nil, err
		}
		return m.A, nil
	})
	if err != nil {
		s.matrices.Drop(key)
		return nil, "", err
	}
	return a, key, nil
}

// apiError is a rejection: the stages of handleSolve return one instead
// of writing it, and write is the only place it reaches the wire.
type apiError struct {
	status int
	body   obs.ErrorBody
}

func badRequest(msg string) *apiError {
	return &apiError{http.StatusBadRequest, obs.ErrorBody{Code: obs.CodeBadRequest, Error: msg}}
}

// write sends the rejection; a retry hint in the body is also the
// Retry-After header, in whole seconds rounded up.
func (e *apiError) write(w http.ResponseWriter) {
	if e.body.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(e.body.RetryAfterSeconds+0.999)))
	}
	obs.WriteJSON(w, e.status, e.body)
}

// decode is the first stage of POST /solve: the control header, the
// bounded body, and every validation that needs no scheduler, ending in
// the job's spec. It writes nothing (w only arms http.MaxBytesReader).
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (req SolveRequest, spec sched.Spec, rej *apiError) {
	ctl, err := ParseSolveControl(r.Header.Get(SolveControlHeader))
	if err != nil {
		return req, spec, badRequest(err.Error())
	}
	body, err := ReadBody(w, r)
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return req, spec, &apiError{http.StatusRequestEntityTooLarge,
				obs.ErrorBody{Code: obs.CodeRequestTooLarge, Error: err.Error()}}
		}
		return req, spec, badRequest("bad request body: " + err.Error())
	}
	// The header's remaining deadline wins over the body: the router
	// decrements the header per hop, while the body may still carry the
	// client's original end-to-end value.
	if ctl.DeadlineMS > 0 {
		req.DeadlineMS = ctl.DeadlineMS
	}
	ordering := core.KWay
	if req.Ordering != "" {
		if ordering, err = core.ParseOrdering(req.Ordering); err != nil {
			return req, spec, badRequest(err.Error())
		}
	}
	opts := core.Options{
		M: req.M, S: req.S, Tol: req.Tol, MaxRestarts: req.MaxRestarts,
		Ortho: req.Ortho, BOrth: req.BOrth, Basis: req.Basis, Precision: req.Precision,
	}
	if opts.Precision == "" {
		opts.Precision = s.defaultPrecision
	}
	// The options are checked by name before the matrix is built and
	// against it after; the spec keeps them as sent but for the
	// normalized precision, so batch keys compare what clients asked for.
	checked, err := core.Check(req.Solver, opts, nil)
	if err != nil {
		return req, spec, badRequest(err.Error())
	}
	opts.Precision = checked.Precision
	a, key, err := s.matrix(req.Matrix)
	if err != nil {
		return req, spec, badRequest("matrix: " + err.Error())
	}
	b, err := buildRHS(req, a.Rows)
	if err != nil {
		return req, spec, badRequest(err.Error())
	}
	if _, err := core.Check(req.Solver, opts, a); err != nil {
		return req, spec, badRequest(err.Error())
	}
	if len(req.Profile) > 0 {
		p, err := profile.Decode(req.Profile)
		if err != nil {
			return req, spec, badRequest(err.Error())
		}
		opts.Profile = &p
	}
	balance := true
	if req.Balance != nil {
		balance = *req.Balance
	}
	spec = sched.Spec{Matrix: a, MatrixKey: key, B: b, Solver: req.Solver,
		Ordering: ordering, Balance: balance, Opts: opts}
	return req, spec, nil
}

// admissionError is the one table from a Submit error to its rejection.
func admissionError(err error) *apiError {
	var full *sched.QueueFullError
	var shed *sched.BrownoutShedError
	var infeasible *sched.DeadlineInfeasibleError
	rej := func(status int, code string, retryAfter time.Duration) *apiError {
		return &apiError{status, obs.ErrorBody{Code: code, Error: err.Error(), RetryAfterSeconds: retryAfter.Seconds()}}
	}
	switch {
	case errors.As(err, &full):
		return rej(http.StatusTooManyRequests, codeQueueFull, full.RetryAfter)
	case errors.As(err, &shed):
		// Brownout is overload, not a bad request: 503 plus a retry hint,
		// so well-behaved clients back off.
		return rej(http.StatusServiceUnavailable, codeBrownoutShed, shed.RetryAfter)
	case errors.As(err, &infeasible):
		// A deadline that cannot cover a solve is the client's
		// configuration problem: 422, not a retryable overload (the
		// router passes 4xx through without burning forwards).
		return rej(http.StatusUnprocessableEntity, codeDeadlineInfeasible, 0)
	case err == sched.ErrDraining:
		return rej(http.StatusServiceUnavailable, codeDraining, 0)
	}
	return rej(http.StatusInternalServerError, codeInternal, 0)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Mint the request root span before touching the body: a caller's
	// traceparent is adopted (their span becomes our parent) and echoed on
	// every response — including rejections — so the trace id round-trips
	// no matter what happens to the request.
	root := s.sched.Tracer().Root("solve", r.Header.Get("traceparent"))
	w.Header().Set("traceparent", root.Traceparent())
	req, spec, rej := s.decode(w, r)
	if rej != nil {
		rej.write(w)
		return
	}
	// The job outlives the HTTP request unless the client waits, so the
	// request context must not be its parent — only the root span rides
	// along, on a fresh background context.
	job, err := s.sched.Submit(obs.ContextWithSpan(context.Background(), root),
		spec, req.Priority, time.Duration(req.DeadlineMS)*time.Millisecond)
	if err != nil {
		admissionError(err).write(w)
		return
	}
	if !req.Wait && r.URL.Query().Get("wait") != "true" {
		obs.WriteJSON(w, http.StatusAccepted, jobJSON(job, false))
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client went away: cancel its job and report what we have.
		job.Cancel()
		<-job.Done()
	}
	status := http.StatusOK
	if _, jerr := job.Result(); jerr != nil {
		var be *core.BreakdownError
		if errors.As(jerr, &be) {
			// Numerical breakdown reproduces bit-identically on retry: a
			// 4xx verdict stops the router from wasting forwards on it.
			status = http.StatusUnprocessableEntity
		}
	}
	obs.WriteJSON(w, status, jobJSON(job, req.IncludeX))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, sub := r.PathValue("id"), r.PathValue("sub")
	job, ok := s.sched.Job(id)
	if !ok {
		obs.WriteError(w, http.StatusNotFound, obs.CodeNotFound, "unknown job "+id)
		return
	}
	switch sub {
	case "":
		includeX := r.URL.Query().Get("include_x") == "true"
		obs.WriteJSON(w, http.StatusOK, jobJSON(job, includeX))
	case "trace.json":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("traceparent", job.Trace().Root().Traceparent())
		_ = job.Trace().WriteChromeTrace(w)
	case "spans.jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		w.Header().Set("traceparent", job.Trace().Root().Traceparent())
		_ = job.Trace().WriteSpansJSONL(w)
	default:
		obs.WriteError(w, http.StatusNotFound, obs.CodeNotFound,
			"unknown job resource "+sub+" (want trace.json or spans.jsonl)")
	}
}

func jobJSON(j *sched.Job, includeX bool) JobJSON {
	out := JobJSON{ID: j.ID, State: string(j.State()), Priority: j.Priority,
		TraceID: j.TraceID()}
	select {
	case <-j.Done():
	default:
		return out // still queued or running: no result fields yet
	}
	res, err := j.Result()
	if err != nil {
		out.Error = err.Error()
		var be *core.BreakdownError
		if errors.As(err, &be) {
			out.Code = codeNumericalBreakdown
		}
	}
	if res != nil {
		out.Converged = res.Converged
		out.Canceled = res.Canceled
		out.RelRes = res.RelRes
		out.Restarts = res.Restarts
		out.Iters = res.Iters
		if res.Stats != nil {
			out.ModeledSeconds = res.Stats.TotalTime()
		}
		if res.Faults != nil {
			out.Faults = &FaultsJSON{
				DevicesLost:        res.Faults.DevicesLost,
				Repartitions:       res.Faults.Repartitions,
				CheckpointRestores: res.Faults.CheckpointRestores,
				TransferFaults:     res.Faults.TransferFaults,
				TransferRetries:    res.Faults.TransferRetries,
			}
		}
		if res.Precision != nil {
			out.Precision = &PrecisionJSON{
				Mode:                res.Precision.Mode,
				WindowsFP64:         res.Precision.WindowsFP64,
				WindowsFP32:         res.Precision.WindowsFP32,
				CompressedTransfers: res.Precision.CompressedTransfers,
				Refinements:         res.Precision.Refinements,
				FinalLevel:          res.Precision.FinalLevel,
			}
		}
		if includeX {
			out.X = res.X
		}
	}
	if a := j.Attempts(); a > 1 {
		out.Attempts = a
	}
	out.WaitSeconds = j.WaitSeconds()
	out.ServiceSeconds = j.ServiceSeconds()
	return out
}

func buildRHS(req SolveRequest, n int) ([]float64, error) {
	kind := "ones"
	var arr []float64
	if len(req.RHS) > 0 {
		if err := json.Unmarshal(req.RHS, &kind); err != nil {
			kind = ""
			if err := json.Unmarshal(req.RHS, &arr); err != nil {
				return nil, fmt.Errorf("rhs must be \"ones\", \"random\", or an array")
			}
		}
	}
	switch {
	case arr != nil:
		if len(arr) != n {
			return nil, fmt.Errorf("rhs length %d for n=%d", len(arr), n)
		}
		return arr, nil
	case kind == "ones":
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		return b, nil
	case kind == "random":
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		rng := rand.New(rand.NewSource(seed))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		return b, nil
	default:
		return nil, fmt.Errorf("unknown rhs %q", kind)
	}
}
