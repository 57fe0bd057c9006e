package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"cagmres/internal/clock"
	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/obs"
	"cagmres/internal/sparse"
)

// Spec describes one solve job: the system to solve and the solver
// configuration. Matrix is shared and must not be mutated after Submit.
type Spec struct {
	// Matrix is the system matrix in original coordinates.
	Matrix *sparse.CSR
	// MatrixKey identifies the matrix contents for batching: jobs whose
	// specs differ only in B and share a non-empty MatrixKey may be
	// coalesced into one device lease and one problem preparation. An
	// empty key disables batching for the job.
	MatrixKey string
	// B is the right-hand side in original coordinates.
	B []float64
	// Solver selects "gmres" or "ca" (see core.SolverByName).
	Solver string
	// Ordering and Balance configure the problem preparation.
	Ordering core.Ordering
	Balance  bool
	// Opts configures the solver. Ctx and Telemetry are owned by the
	// scheduler and overwritten per job.
	Opts core.Options
}

// batchKey renders the compatibility class of the spec: two jobs with
// equal non-empty keys can share a lease and a prepared problem.
func (s *Spec) batchKey() string {
	if s.MatrixKey == "" {
		return ""
	}
	o := s.Opts
	return fmt.Sprintf("%s|%s|%s|%t|m%d|s%d|tol%g|mr%d|%s|%s|%s|p%s",
		s.MatrixKey, s.Solver, s.Ordering, s.Balance,
		o.M, o.S, o.Tol, o.MaxRestarts, o.Ortho, o.BOrth, o.Basis, o.Precision)
}

// State is a job's lifecycle position.
type State string

// Job states. Rejected submissions never produce a Job; every submitted
// job ends in done, canceled, or failed.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Job is one admitted solve request.
type Job struct {
	// ID is the scheduler-assigned identifier ("job-<seq>").
	ID string
	// Priority orders dispatch: higher first, FIFO within a class.
	Priority int
	// Spec is the solve request.
	Spec Spec

	ctx      context.Context
	cancel   context.CancelCauseFunc
	deadline clock.Timer // the deadline's clock timer; nil without one

	// trace is the job's request trace: the root span (minted by the
	// submitter or by the scheduler), the queue/lease/heal/solver spans
	// recorded while the job runs, and the finishing attempt's ledger.
	// Set once at Submit, immutable afterwards.
	trace *obs.JobTrace

	seq   uint64 // admission sequence, the FIFO tiebreak
	index int    // heap position

	mu          sync.Mutex
	state       State
	dispatchSeq uint64
	attempts    int // leases this job has run on
	submitted   time.Time
	started     time.Time // the latest attempt's start
	finished    time.Time
	result      *core.Result
	err         error
	done        chan struct{}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the solve result and error once the job is terminal
// (nil result for jobs that failed before solving). Callers wait on
// Done first.
func (j *Job) Result() (*core.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// WaitSeconds returns the time from submission to the start of the
// job's latest solve attempt, on the scheduler's clock — queueing plus
// any wait behind batch mates on the same lease; valid once running or
// terminal.
func (j *Job) WaitSeconds() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		return 0
	}
	return j.started.Sub(j.submitted).Seconds()
}

// ServiceSeconds returns the time the job's latest solve attempt took,
// on the scheduler's clock; valid once terminal.
func (j *Job) ServiceSeconds() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished.IsZero() || j.started.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started).Seconds()
}

// Cancel cancels the job's context; a queued job turns into a canceled
// result at dispatch, a running one stops at the solver's next restart
// boundary.
func (j *Job) Cancel() { j.cancel(nil) }

// Trace returns the job's request trace (never nil for admitted jobs).
func (j *Job) Trace() *obs.JobTrace { return j.trace }

// TraceID returns the trace id shared by every span of the job.
func (j *Job) TraceID() string { return j.trace.TraceID() }

// Attempts returns how many leases the job has run on — more than one
// means the scheduler re-queued it after a lease fault.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// startAttempt marks the job running and stamps the attempt's start,
// returning the attempt number.
func (j *Job) startAttempt(start time.Time) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = start
	j.attempts++
	return j.attempts
}

func (j *Job) markDispatched(seq uint64) {
	j.mu.Lock()
	j.dispatchSeq = seq
	j.mu.Unlock()
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// finish records the terminal state and result. The job is not
// observable as done until signalDone, which finishJob calls once the
// trace and SLO bookkeeping of the job are complete.
func (j *Job) finish(st State, res *core.Result, err error, now time.Time) {
	j.mu.Lock()
	j.state = st
	j.result = res
	j.err = err
	j.finished = now
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.mu.Unlock()
}

func (j *Job) signalDone() {
	if j.deadline != nil {
		j.deadline.Stop()
	}
	j.cancel(nil)
	close(j.done)
}

// QueueFullError is returned by Submit when the admission queue is at
// capacity. RetryAfter is the backpressure hint the HTTP layer turns
// into a Retry-After header.
type QueueFullError struct {
	Depth      int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("sched: admission queue full (%d jobs); retry after %v",
		e.Depth, e.RetryAfter)
}

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("sched: scheduler is draining")

// Config parameterizes a Scheduler.
type Config struct {
	// Pool supplies the device contexts; one worker runs per context.
	Pool *Pool
	// QueueDepth bounds the admission queue (default 64). A full queue
	// rejects rather than blocks.
	QueueDepth int
	// MaxBatch caps how many compatible jobs share one lease
	// (default 8; 1 disables batching).
	MaxBatch int
	// RetryAfter is the backpressure hint attached to rejections
	// (default 1s).
	RetryAfter time.Duration
	// RetainJobs bounds how many terminal jobs stay resolvable by ID
	// (default 1024); older ones are evicted FIFO.
	RetainJobs int
	// Registry receives the scheduler instruments, which are also the
	// scheduler's only event tallies (Snapshot reads them back); nil gets a
	// private registry nobody scrapes.
	Registry *obs.Registry
	// MaxJobAttempts bounds how many leases one job may consume before a
	// retryable lease fault (transfer-retry exhaustion, unrecoverable
	// device loss) fails it instead of re-queueing it (default 2).
	MaxJobAttempts int
	// LeaseTimeout, when > 0, bounds one lease's execution:
	// when it fires, every job still on the lease is canceled so a stuck
	// batch stops at the solver's next restart boundary instead of
	// holding a device context forever.
	LeaseTimeout time.Duration
	// DrainGrace bounds how long Drain keeps waiting for workers after
	// its context expires and the jobs have been canceled. When the
	// grace also runs out — a lease is wedged in code that never checks
	// cancellation — Drain abandons the remaining jobs and returns a
	// *DrainTimeoutError listing them. 0 preserves the old behavior of
	// waiting indefinitely.
	DrainGrace time.Duration
	// Tracer mints the request-trace identifiers; nil gets a fresh
	// tracer over Registry. Every job carries a trace whether or not the
	// submitter provided a root span.
	Tracer *obs.Tracer
	// SLO judges finished jobs against per-priority objectives; nil gets
	// the default two-class engine over Registry, on Clock.
	SLO *obs.SLOEngine
	// Brownout, when non-nil, enables SLO-driven load shedding: as the
	// fast-burn windows trip, Submit sheds the lowest-priority classes
	// first (see BrownoutConfig).
	Brownout *BrownoutConfig
	// DeadlineMargin, when > 0, arms the deadline-infeasibility gate:
	// a submission whose deadline is below DeadlineMargin times the
	// rolling service-time estimate is rejected up front instead of
	// admitted, queued, and shed after its deadline expires anyway.
	// A margin of 1 means "the deadline must at least cover one
	// typical solve"; 2 leaves room for queueing. 0 disables the gate.
	DeadlineMargin float64
	// Clock is the time source of every stamp, deadline, lease timeout,
	// drain grace, request root span and the default SLO engine; nil is
	// clock.Wall. A *Virtual runs the scheduler in
	// modeled time (see Virtual.Run).
	Clock clock.Clock
}

func (c *Config) defaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 1024
	}
	if c.MaxJobAttempts == 0 {
		c.MaxJobAttempts = 2
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(c.Registry)
	}
	if c.Clock == nil {
		c.Clock = clock.Wall
	}
	if c.SLO == nil {
		c.SLO = obs.NewSLOEngine(c.Registry, obs.SLOConfig{}, c.Clock)
	}
}

// Scheduler owns the admission queue and the worker per pooled context.
// Construct with New, launch with Start, stop with Drain.
type Scheduler struct {
	cfg      Config
	met      *metrics
	prepared *preparedCache

	mu           sync.Mutex
	cond         *sync.Cond
	queue        jobQueue
	jobs         map[string]*Job
	terminal     []string // eviction order of terminal jobs
	nextSeq      uint64
	nextDispatch uint64
	started      bool
	draining     bool

	// The two event tallies without a registry series; every other count
	// lives in met.
	dispatched uint64
	batched    uint64 // jobs that shared a lease with at least one other

	// svcEWMA is the service-time estimate the deadline gate compares
	// against.
	svcEWMA float64

	wg sync.WaitGroup
}

// New builds a scheduler over the pool. Workers do not run until Start,
// so tests can stage a queue and observe deterministic dispatch.
func New(cfg Config) *Scheduler {
	if cfg.Pool == nil {
		panic("sched: Config.Pool is required")
	}
	cfg.defaults()
	s := &Scheduler{cfg: cfg, jobs: make(map[string]*Job)}
	s.cond = sync.NewCond(&s.mu)
	s.met = newMetrics(cfg.Registry, cfg.Pool)
	s.prepared = newPreparedCache(cfg.Registry)
	return s
}

// Pool returns the device pool the scheduler leases from.
func (s *Scheduler) Pool() *Pool { return s.cfg.Pool }

// Tracer returns the scheduler's trace-id mint (never nil after New).
func (s *Scheduler) Tracer() *obs.Tracer { return s.cfg.Tracer }

// SLO returns the scheduler's SLO engine (never nil after New).
func (s *Scheduler) SLO() *obs.SLOEngine { return s.cfg.SLO }

// Start launches one worker goroutine per pooled context. Idempotent.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Pool.Size(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Submit admits a job, or rejects it: *QueueFullError when the queue is
// at capacity, ErrDraining after Drain began. parent is the caller's
// context (nil means Background); deadline > 0 additionally bounds the
// job's total latency — queue wait plus solve — after which the solver
// stops at its next restart boundary with a Canceled result. Submit
// never blocks.
func (s *Scheduler) Submit(parent context.Context, spec Spec, priority int, deadline time.Duration) (*Job, error) {
	if parent == nil {
		parent = context.Background()
	}
	// Containment gates run before the queue-capacity check: a shed
	// request must not consume queue space, and both gates read state
	// (the SLO engine, the EWMA) outside the queue lock.
	if lvl := s.BrownoutLevel(); lvl > 0 {
		rung := lvl
		if rung > len(s.cfg.Brownout.Ladder) {
			rung = len(s.cfg.Brownout.Ladder)
		}
		minPrio := s.cfg.Brownout.Ladder[rung-1]
		if priority < minPrio {
			s.met.shedBrownout.Inc()
			return nil, &BrownoutShedError{
				Level: lvl, Priority: priority, MinPriority: minPrio,
				RetryAfter: s.cfg.RetryAfter,
			}
		}
	}
	if s.cfg.DeadlineMargin > 0 && deadline > 0 {
		if est := s.serviceEstimate(); est > 0 && deadline.Seconds() < s.cfg.DeadlineMargin*est {
			s.met.shedInfeasible.Inc()
			return nil, &DeadlineInfeasibleError{
				Deadline: deadline,
				Estimate: time.Duration(est * float64(time.Second)),
			}
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.met.rejections.Inc()
		return nil, &QueueFullError{Depth: s.cfg.QueueDepth, RetryAfter: s.cfg.RetryAfter}
	}
	now := s.cfg.Clock.Now()
	// A deadline is a clock timer whose cause is DeadlineExceeded, so
	// dispatch tells an expiry from a cancel on any clock.
	jctx, cancel := context.WithCancelCause(parent)
	var timer clock.Timer
	if deadline > 0 {
		timer = s.cfg.Clock.AfterFunc(deadline, func() { cancel(context.DeadlineExceeded) })
	}
	seq := s.nextSeq
	s.nextSeq++
	// The request root span travels in via the parent context (the HTTP
	// layer minted it from the traceparent header); a bare Submit gets a
	// fresh root so every job is traceable. Either way the root starts at
	// submission on the scheduler's clock.
	root, ok := obs.SpanFromContext(parent)
	if !ok {
		root = s.cfg.Tracer.Root("solve", "")
	}
	root.Start = clock.Seconds(now)
	j := &Job{
		ID:       fmt.Sprintf("job-%d", seq+1),
		Priority: priority,
		Spec:     spec,
		ctx:      jctx,
		cancel:   cancel,
		deadline: timer,
		seq:      seq,
		state:    StateQueued,
		done:     make(chan struct{}),
	}
	root.SetAttr("job_id", j.ID)
	root.SetAttr("priority", strconv.Itoa(priority))
	solver := spec.Solver
	if solver == "" {
		solver = "ca"
	}
	root.SetAttr("solver", solver)
	if deadline > 0 {
		root.SetAttr("deadline", deadline.String())
	}
	j.trace = obs.NewJobTrace(s.cfg.Tracer, root)
	j.submitted = now
	heap.Push(&s.queue, j)
	s.jobs[j.ID] = j
	depth := len(s.queue)
	s.mu.Unlock()
	s.met.setDepth(depth)
	s.cond.Signal()
	return j, nil
}

// Job resolves a job by ID while it is queued, running, or retained.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Snapshot is a point-in-time view of the scheduler: the body of
// /healthz (internal/server adds the fields only it knows) and what
// tests read. Every count except Dispatched and Batched is read back
// from its registry series, so /healthz and /metrics cannot disagree.
type Snapshot struct {
	PoolSize   int    `json:"pool_size"`
	PoolInUse  int    `json:"pool_in_use"`
	QueueDepth int    `json:"queue_depth"`
	Draining   bool   `json:"draining"`
	Dispatched uint64 `json:"dispatched"`
	Rejected   uint64 `json:"rejected"`
	Leases     uint64 `json:"leases"`
	Batched    uint64 `json:"-"`

	// Fault-and-recovery state: healthy pool members, injected faults
	// observed across all leases, and the recovery actions taken.
	// Degraded reports permanently lost capacity — contexts evicted by the
	// pool's health probe and not readmitted. The service keeps solving on
	// what survives, but operators should know.
	Degraded        bool   `json:"degraded"`
	PoolHealthy     int    `json:"pool_healthy"`
	Evictions       uint64 `json:"evictions"`
	Readmissions    uint64 `json:"readmissions"`
	DevicesLost     uint64 `json:"devices_lost"`
	TransferFaults  uint64 `json:"transfer_faults"`
	TransferRetries uint64 `json:"transfer_retries"`
	Requeues        uint64 `json:"requeues"`
	LeaseTimeouts   uint64 `json:"lease_timeouts"`
	Repartitions    uint64 `json:"repartitions"`
	Restores        uint64 `json:"checkpoint_restores"`

	// Containment state: the active brownout level (0 = no shedding) and
	// the shed tallies per reason.
	BrownoutLevel          int    `json:"brownout_level"`
	ShedBrownout           uint64 `json:"shed_brownout"`
	ShedDeadlineInfeasible uint64 `json:"shed_deadline_infeasible"`
	ShedDeadlineExpired    uint64 `json:"shed_deadline_expired"`

	// Prepared-problem cache: lookups served from it, lookups that had
	// to prepare, and entries dropped (LRU bound or lease fault).
	PreparedHits      uint64 `json:"prepared_hits"`
	PreparedMisses    uint64 `json:"prepared_misses"`
	PreparedEvictions uint64 `json:"prepared_evictions"`

	// PoolWorkspaceBytes is the solve memory the pooled contexts hold
	// between leases (Pool.WorkspaceBytes, the sched_pool_workspace_bytes
	// gauge).
	PoolWorkspaceBytes int `json:"pool_workspace_bytes"`
}

// Snapshot returns current counters and queue state.
func (s *Scheduler) Snapshot() Snapshot {
	m, pool := s.met, s.cfg.Pool
	count := func(c obs.Counter) uint64 { return uint64(c.Value()) }
	// Pool health is read before the series, and the series latest-written
	// first (a readmission follows its eviction, an eviction the fault
	// harvest of its lease), so a snapshot never shows an effect without
	// its cause.
	sn := Snapshot{
		BrownoutLevel:      s.BrownoutLevel(),
		PoolSize:           pool.Size(),
		PoolInUse:          pool.InUse(),
		PoolWorkspaceBytes: pool.WorkspaceBytes(),
		PoolHealthy:        pool.Healthy(),

		Readmissions:    count(m.readmissions),
		Evictions:       count(m.evictions),
		DevicesLost:     count(m.faultDeaths),
		TransferFaults:  count(m.faultTransfers),
		TransferRetries: count(m.retries),
		Requeues:        count(m.requeues),
		LeaseTimeouts:   count(m.leaseTimeouts),
		Repartitions:    count(m.repartitions),
		Restores:        count(m.restores),
		Rejected:        count(m.rejections),
		Leases:          count(m.leases),

		ShedBrownout:           count(m.shedBrownout),
		ShedDeadlineInfeasible: count(m.shedInfeasible),
		ShedDeadlineExpired:    count(m.shedExpired),

		PreparedHits:      count(s.prepared.hits),
		PreparedMisses:    count(s.prepared.misses),
		PreparedEvictions: count(s.prepared.evictions),
	}
	sn.Degraded = sn.PoolHealthy < sn.PoolSize
	s.mu.Lock()
	defer s.mu.Unlock()
	sn.QueueDepth, sn.Draining = len(s.queue), s.draining
	sn.Dispatched, sn.Batched = s.dispatched, s.batched
	return sn
}

// DrainTimeoutError is returned by Drain when even the post-cancel
// grace period (Config.DrainGrace) ran out: some lease is wedged in
// code that never observes cancellation. Abandoned lists the jobs left
// behind, sorted by ID.
type DrainTimeoutError struct {
	Abandoned []string
}

func (e *DrainTimeoutError) Error() string {
	return fmt.Sprintf("sched: drain grace expired with %d jobs abandoned: %v",
		len(e.Abandoned), e.Abandoned)
}

// Drain stops admission, waits for the queue to empty and every worker
// to finish, and returns nil. If ctx expires first, all remaining jobs
// are canceled (they finish with Canceled results at the solvers' next
// restart boundary) and Drain waits for the workers — indefinitely by
// default, or for at most Config.DrainGrace, after which it gives up on
// wedged leases and returns a *DrainTimeoutError naming the abandoned
// jobs. After Drain, Submit returns ErrDraining forever; the scheduler
// is done.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	started := s.started
	s.mu.Unlock()
	s.cond.Broadcast()
	if !started {
		// Never started: cancel whatever is queued so submitters do not
		// wait on jobs nobody will run.
		s.mu.Lock()
		var orphans []*Job
		for len(s.queue) > 0 {
			orphans = append(orphans, heap.Pop(&s.queue).(*Job))
		}
		s.mu.Unlock()
		for _, j := range orphans {
			s.finishJob(j, StateCanceled, &core.Result{Canceled: true}, nil)
		}
		s.met.setDepth(0)
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.Cancel()
		}
		grace := s.cfg.DrainGrace
		s.mu.Unlock()
		if grace <= 0 {
			<-done
			return ctx.Err()
		}
		expired := make(chan struct{})
		timer := s.cfg.Clock.AfterFunc(grace, func() { close(expired) })
		defer timer.Stop()
		select {
		case <-done:
			return ctx.Err()
		case <-expired:
			s.mu.Lock()
			var abandoned []string
			for id, j := range s.jobs {
				if st := j.State(); st == StateQueued || st == StateRunning {
					abandoned = append(abandoned, id)
				}
			}
			s.mu.Unlock()
			sort.Strings(abandoned)
			return &DrainTimeoutError{Abandoned: abandoned}
		}
	}
}

// worker runs until draining empties the queue: wait for a job, pop a
// batch, lease a context, execute, release.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for s.await() {
		if batch := s.popBatch(); batch != nil {
			s.execute(batch)
		}
	}
}

// await blocks until a job is queued (true) or the scheduler is draining
// an empty queue (false).
func (s *Scheduler) await() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.draining {
			return false
		}
		s.cond.Wait()
	}
	return true
}

// popBatch takes the highest-priority queued job, or returns nil when
// the queue is empty, and coalesces up to MaxBatch-1 compatible
// followers (same batch key) into its lease. Dispatch order — including
// the followers' — is recorded under the queue lock, so it is
// deterministic for a fixed submission order.
func (s *Scheduler) popBatch() []*Job {
	s.mu.Lock()
	if len(s.queue) == 0 {
		s.mu.Unlock()
		return nil
	}
	now := s.cfg.Clock.Now()
	head := heap.Pop(&s.queue).(*Job)
	head.markDispatched(s.nextDispatch)
	s.queueSpan(head, now)
	s.nextDispatch++
	s.dispatched++
	batch := []*Job{head}
	if key := head.Spec.batchKey(); key != "" && s.cfg.MaxBatch > 1 {
		// Collect compatible jobs in dispatch order (priority, then
		// FIFO) and pull them out of the heap.
		var mates []*Job
		for _, j := range s.queue {
			if j.Spec.batchKey() == key {
				mates = append(mates, j)
			}
		}
		sort.Slice(mates, func(i, k int) bool { return mates[i].before(mates[k]) })
		if len(mates) > s.cfg.MaxBatch-1 {
			mates = mates[:s.cfg.MaxBatch-1]
		}
		for _, j := range mates {
			heap.Remove(&s.queue, j.index)
			j.markDispatched(s.nextDispatch)
			s.queueSpan(j, now)
			s.nextDispatch++
			s.dispatched++
			batch = append(batch, j)
		}
		if len(batch) > 1 {
			s.batched += uint64(len(batch))
		}
	}
	depth := len(s.queue)
	s.mu.Unlock()
	s.met.setDepth(depth)
	s.met.leases.Inc()
	return batch
}

// queueSpan records the admission-queue wait as a child span of the
// job's root: submitted → dispatched. A re-queued job gets a second
// queue span for its second wait. Called with s.mu held.
func (s *Scheduler) queueSpan(j *Job, dispatched time.Time) {
	root := j.trace.Root()
	q := s.cfg.Tracer.Child(root, "queue", obs.KindQueue)
	j.mu.Lock()
	q.Start = clock.Seconds(j.submitted)
	q.SetAttr("attempt", strconv.Itoa(j.attempts+1))
	j.mu.Unlock()
	if q.Start < root.Start {
		q.Start = root.Start
	}
	q.End = clock.Seconds(dispatched)
	if q.End < q.Start {
		q.End = q.Start
	}
	j.trace.Add(q)
}

// finishJob moves a job to its terminal state and closes out its trace,
// metrics and SLO accounting: the finishing attempt's ledger is attached
// (its device lanes become the stitched Chrome trace), the root span is
// widened over its children and stamped with the outcome, wait and
// service are observed from the job's own stamps, and the end-to-end
// latency is judged against the job's priority class. A job that never
// started an attempt has no service time.
// Canceled jobs are judged by latency alone — a deadline expiry usually
// blows the latency target on its own, while a fast user cancel is not
// the service's failure.
func (s *Scheduler) finishJob(j *Job, st State, res *core.Result, err error) {
	modeled := 0.0
	if res != nil && res.Stats != nil {
		modeled = res.Stats.TotalTime()
		j.trace.AttachStats(res.Stats)
	}
	j.trace.SetRootAttr("state", string(st))
	if err != nil {
		j.trace.SetRootAttr("error", err.Error())
	}
	j.finish(st, res, err, s.cfg.Clock.Now())
	j.mu.Lock()
	end := j.finished
	latency := j.finished.Sub(j.submitted).Seconds()
	wait := j.started.Sub(j.submitted).Seconds()
	service := j.finished.Sub(j.started).Seconds()
	j.mu.Unlock()
	s.met.finished(st, wait, service, modeled)
	j.trace.FinishRoot(clock.Seconds(end), modeled)
	s.cfg.SLO.Observe(j.Priority, latency, st == StateFailed)
	if st == StateDone {
		// Completed solves feed the deadline gate's service estimate.
		s.observeService(service)
	}
	// Last: whoever waits on Done may read the trace, the SLO report
	// and the service estimate straight away.
	j.signalDone()
}

// retryableLeaseFault reports errors worth another lease: transfer-retry
// exhaustion and unrecoverable device loss are properties of the faulted
// context, not the job, so the job may well succeed on a healthy one.
func retryableLeaseFault(err error) bool {
	var te *gpu.TransferError
	var dl *gpu.DeviceLostError
	return errors.As(err, &te) || errors.As(err, &dl)
}

// requeue puts a fault-hit job back in the admission queue. It keeps its
// original admission sequence, so it re-dispatches ahead of later
// arrivals of the same priority.
func (s *Scheduler) requeue(j *Job) {
	j.setState(StateQueued)
	s.mu.Lock()
	heap.Push(&s.queue, j)
	depth := len(s.queue)
	s.mu.Unlock()
	s.met.setDepth(depth)
	s.met.requeues.Inc()
	s.cond.Signal()
}

// execute runs a batch under one device lease: the first live job takes
// the prepared problem from the scheduler's cache (preparing it on a
// miss) and every job re-targets it at its right-hand side with SetB.
// Jobs whose deadline expired while queued are finished as canceled
// without touching the device. Jobs hit by a lease fault are
// re-queued up to MaxJobAttempts leases; the fault tally of the lease is
// harvested into the fault series before the pool's health probe decides
// the context's fate.
func (s *Scheduler) execute(batch []*Job) {
	lease, err := s.cfg.Pool.Acquire(context.Background())
	if err != nil { // pool exhausted: every context evicted
		for _, j := range batch {
			s.finishJob(j, StateFailed, nil, err)
		}
		s.retain(batch)
		return
	}
	leaseStart := s.cfg.Clock.Now()
	fcBefore := lease.FaultCounts()
	if s.cfg.LeaseTimeout > 0 {
		timer := s.cfg.Clock.AfterFunc(s.cfg.LeaseTimeout, func() {
			s.met.leaseTimeouts.Inc()
			for _, j := range batch {
				j.Cancel()
			}
		})
		defer timer.Stop()
	}
	defer func() {
		delta := lease.FaultCounts()
		delta.DeviceDeaths -= fcBefore.DeviceDeaths
		delta.TransferFaults -= fcBefore.TransferFaults
		delta.TransferRetries -= fcBefore.TransferRetries
		s.met.faults(delta)
		s.cfg.Pool.Release(lease)
		s.met.leaseReleased(s.cfg.Clock.Now().Sub(leaseStart).Seconds(), len(batch))
	}()

	var problem *core.Problem
	var terminal []*Job
	for _, j := range batch {
		if j.ctx.Err() != nil {
			// Deadline or cancellation expired while queued: a Canceled
			// result without spending device time. An expired deadline is
			// the containment layer shedding dead-on-arrival work, so it
			// is tallied and stamped on the trace separately from a user
			// cancel.
			if errors.Is(context.Cause(j.ctx), context.DeadlineExceeded) {
				s.met.shedExpired.Inc()
				j.trace.SetRootAttr("shed_reason", "deadline_expired")
			}
			s.finishJob(j, StateCanceled, &core.Result{Canceled: true}, nil)
			terminal = append(terminal, j)
			continue
		}
		start := s.cfg.Clock.Now()
		attempt := j.startAttempt(start)
		ledger := lease.Stats()
		base := ledger.TotalTime()

		// One lease span per solve attempt; the solver-phase and heal
		// spans the telemetry sink derives hang under it.
		ls := s.cfg.Tracer.Child(j.trace.Root(), fmt.Sprintf("lease attempt %d", attempt), obs.KindLease)
		ls.Start = clock.Seconds(start)
		ls.SetAttr("attempt", strconv.Itoa(attempt))
		ls.SetAttr("batch", strconv.Itoa(len(batch)))

		var res *core.Result
		solve, err := core.SolverByName(j.Spec.Solver)
		if err == nil && problem == nil {
			problem, err = s.prepare(j, ls, lease)
		}
		if err == nil {
			err = problem.SetB(j.Spec.B)
		}
		if err == nil {
			opts := j.Spec.Opts
			opts.Ctx = j.ctx
			opts.Telemetry = j.trace.SolverSink(s.cfg.Tracer, ls, j.ID, attempt, opts.Telemetry)
			res, err = solve(problem, opts)
		}
		// A solve resets the lease's ledger at its start, so the attempt
		// charged what the old ledger gained plus all of the current one.
		charged := ledger.TotalTime() - base
		if cur := lease.Stats(); cur != ledger {
			charged += cur.TotalTime()
		}
		s.cfg.Clock.Attempt(start, charged)
		closeLease := func(outcome string) {
			ls.End = clock.Seconds(s.cfg.Clock.Now())
			ls.SetAttr("outcome", outcome)
			j.trace.Add(ls)
		}
		if err != nil && retryableLeaseFault(err) {
			// The context is suspect after a lease fault: stop reusing
			// what was prepared on it and route this job elsewhere.
			problem = nil
			s.prepared.Drop(keyOf(lease, &j.Spec))
			if attempt < s.cfg.MaxJobAttempts {
				closeLease("requeued")
				s.requeue(j)
				continue
			}
		}
		if res != nil && res.Faults != nil {
			s.met.repartitions.Add(float64(res.Faults.Repartitions))
			s.met.restores.Add(float64(res.Faults.CheckpointRestores))
		}

		st := StateDone
		switch {
		case err != nil:
			st = StateFailed
		case res.Canceled:
			st = StateCanceled
		}
		closeLease(string(st))
		if st == StateDone && res != nil {
			s.met.precision(res.Precision)
		}
		s.finishJob(j, st, res, err)
		terminal = append(terminal, j)
	}
	s.retain(terminal)
}

// prepare fetches the batch's prepared problem from the cache (building
// it on a miss) and records the wall time that took as a child span of
// the job's lease span.
func (s *Scheduler) prepare(j *Job, ls obs.Span, lease *gpu.Context) (*core.Problem, error) {
	ps := s.cfg.Tracer.Child(ls, "prepare", obs.KindPrepare)
	ps.Start = clock.Seconds(s.cfg.Clock.Now())
	problem, hit, err := s.prepared.problem(lease, &j.Spec)
	ps.End = clock.Seconds(s.cfg.Clock.Now())
	if hit {
		ps.SetAttr("cache", "hit")
	} else {
		ps.SetAttr("cache", "miss")
	}
	j.trace.Add(ps)
	return problem, err
}

// retain records terminal jobs for by-ID lookup and evicts the oldest
// beyond the retention cap.
func (s *Scheduler) retain(jobs []*Job) {
	s.mu.Lock()
	for _, j := range jobs {
		s.terminal = append(s.terminal, j.ID)
	}
	for len(s.terminal) > s.cfg.RetainJobs {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.mu.Unlock()
}
