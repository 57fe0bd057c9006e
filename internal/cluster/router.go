package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cagmres/internal/clock"
	"cagmres/internal/obs"
	"cagmres/internal/server"
)

// Error codes of the router's obs.ErrorBody rejections that only the
// federation gives; the ones both tiers give are obs.Code*.
const (
	// codeNoBackend: the router has no backends configured at all.
	codeNoBackend = "no_backend"
	// codeHopLimit: the forwarding hop budget ran out with candidate
	// backends still untried.
	codeHopLimit = "hop_limit"
	// codeShardUnavailable: every candidate backend for the shard was
	// tried and none could take the job.
	codeShardUnavailable = "shard_unavailable"
	// codeUpstreamError: a pass-through request reached its backend but
	// the transport failed mid-flight.
	codeUpstreamError = "upstream_error"
	// codeRetryBudgetExhausted: the token-bucket retry budget is empty,
	// so the router refuses to multiply load by forwarding further.
	codeRetryBudgetExhausted = "retry_budget_exhausted"
	// codeDeadlineExhausted: the client deadline ran out before any
	// backend accepted the solve.
	codeDeadlineExhausted = "deadline_exhausted"
)

// Config configures a Router.
type Config struct {
	// Backends is the cluster membership, in any order (rendezvous
	// hashing makes the order irrelevant).
	Backends []*Backend
	// MaxHops bounds how many candidate backends one solve may be
	// forwarded to before the router gives up; 0 means 3. The effective
	// budget is never more than the backend count.
	MaxHops int
	// Registry receives the router's own instruments; nil allocates a
	// private one. Per-backend metrics stay on the backends (pass
	// through /backends/{name}/metrics) so Prometheus family names never
	// collide.
	Registry *obs.Registry
	// ShardMap optionally pins keys and weights routing; nil routes by
	// pure rendezvous hashing.
	ShardMap *ShardMap
	// RetryBudgetRatio is the fraction of successful traffic the router
	// may spend on reroutes and hedges (tokens earned per success);
	// <= 0 means 0.1. RetryBudgetBurst caps the bucket; <= 0 means 10.
	RetryBudgetRatio float64
	RetryBudgetBurst float64
	// Breaker parameterizes the per-backend circuit breakers. The
	// zero value takes the breaker defaults (threshold 5, cooldown 5s).
	Breaker BreakerConfig
	// Clock is the router's time source: breaker cooldowns, deadline
	// decrements, the hedge timer and the latency ring. Nil is
	// clock.Wall.
	Clock clock.Clock
	// HedgeAfter enables hedged wait-solves: after this many seconds
	// without a response (or the rolling p95 solve latency, once enough
	// samples exist), a second attempt goes to the next candidate and
	// the first response wins. 0 disables hedging unless a request opts
	// in via Solve-Control: hedge=on.
	HedgeAfter float64
}

// Router fronts the federation: an http.Handler serving the route table
// New mounts.
type Router struct {
	backends   []*Backend
	byName     map[string]*Backend
	maxHops    int
	shardMap   *ShardMap
	reg        *obs.Registry
	mux        *http.ServeMux
	budget     *RetryBudget
	breakers   map[string]*Breaker
	clock      clock.Clock
	hedgeAfter float64
	simd       string // obs.HostKernels, for /healthz

	mu      sync.Mutex
	latRing []float64 // recent successful solve latencies (p95 source)
	latNext int

	// The router's only event tallies: Counts, ResilienceSnapshot and
	// /healthz read these series back. The breakers and the budget write
	// their own.
	metSolves       obs.Counter
	metReroutes     obs.Counter
	metRejects      obs.Counter
	metBudgetDenied obs.Counter
	metBreakerSkips obs.Counter
	metHedges       obs.Counter
	metHedgeWins    obs.Counter
	metDeadline     obs.Counter
}

// New builds a router over the membership.
func New(cfg Config) *Router {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	maxHops := cfg.MaxHops
	if maxHops <= 0 {
		maxHops = 3
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall
	}
	r := &Router{
		backends:   cfg.Backends,
		byName:     make(map[string]*Backend, len(cfg.Backends)),
		maxHops:    maxHops,
		shardMap:   cfg.ShardMap,
		reg:        cfg.Registry,
		mux:        http.NewServeMux(),
		budget:     NewRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst, cfg.Registry),
		breakers:   make(map[string]*Breaker, len(cfg.Backends)),
		clock:      cfg.Clock,
		hedgeAfter: cfg.HedgeAfter,
		simd:       obs.HostKernels(cfg.Registry),
		latRing:    make([]float64, 0, latRingCap),
	}
	for _, b := range cfg.Backends {
		r.byName[b.Name()] = b
		r.breakers[b.Name()] = NewBreaker(cfg.Breaker, cfg.Clock, cfg.Registry, b.Name())
	}
	r.metSolves = cfg.Registry.Counter("router_solves_total", "solve requests routed to a backend")
	r.metReroutes = cfg.Registry.Counter("router_reroutes_total", "forward hops past the first-choice backend")
	r.metRejects = cfg.Registry.Counter("router_rejects_total", "solve requests rejected by the router itself")
	r.metBudgetDenied = cfg.Registry.Counter("router_retry_budget_exhausted_total", "forwards refused because the retry budget was empty")
	r.metBreakerSkips = cfg.Registry.Counter("router_breaker_skips_total", "candidate backends skipped because their breaker was open")
	r.metHedges = cfg.Registry.Counter("router_hedges_total", "hedged second attempts launched")
	r.metHedgeWins = cfg.Registry.Counter("router_hedge_wins_total", "solves won by the hedged attempt")
	r.metDeadline = cfg.Registry.Counter("router_deadline_expired_total", "solves rejected because the client deadline expired at the router")
	obs.Mount(r.mux, []obs.Route{
		// Route a solve to its shard, forwarding on overload or death
		// under a hop budget.
		{Method: http.MethodPost, Path: "/solve", Handler: r.handleSolve},
		// Proxy a job lookup to its backend; ids are backend/id. Here and
		// for /backends, {x} and {x}/{sub...} are two routes because a
		// lone {x...} would have the mux redirect /jobs/{backend} to
		// /jobs/{backend}/ instead of answering the malformed path's 404.
		{Method: http.MethodGet, Path: "/jobs/{backend}/{id}", Handler: r.proxyJob(false)},
		{Method: http.MethodGet, Path: "/jobs/{backend}/{id}/{sub...}", Handler: r.proxyJob(true)},
		{Method: http.MethodGet, Path: "/jobs/", Handler: r.notFound("cluster job ids are backend/id; want /jobs/{backend}/{id}")},
		// Aggregated health and SLO reports; the router's own instruments.
		{Method: http.MethodGet, Path: "/healthz", Handler: r.handleHealthz},
		{Method: http.MethodGet, Path: "/slo", Handler: r.handleSLO},
		{Method: http.MethodGet, Path: "/metrics", Handler: r.handleMetrics},
		// Pass one backend's own surface through.
		{Method: http.MethodGet, Path: "/backends/{backend}/{path}", Handler: r.pass(false)},
		{Method: http.MethodGet, Path: "/backends/{backend}/{path}/{sub...}", Handler: r.pass(true)},
		{Method: http.MethodGet, Path: "/backends/", Handler: r.notFound("want /backends/{name}/{path}")},
		// Mark a backend dead (simulated node death), and bring it back.
		{Method: http.MethodPost, Path: "/admin/kill/{backend...}", Handler: r.admin((*Backend).Kill, (*Breaker).Trip)},
		{Method: http.MethodPost, Path: "/admin/revive/{backend...}", Handler: r.admin((*Backend).Revive, (*Breaker).Success)},
	}, r.reject)
	return r
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Backends returns the membership names, in configuration order.
func (r *Router) Backends() []string {
	out := make([]string, len(r.backends))
	for i, b := range r.backends {
		out[i] = b.Name()
	}
	return out
}

// Counts returns the routing tallies (solves accepted, reroute hops,
// router-level rejections).
func (r *Router) Counts() (solves, reroutes, rejects uint64) {
	return uint64(r.metSolves.Value()), uint64(r.metReroutes.Value()), uint64(r.metRejects.Value())
}

// Resilience is the containment layer's state snapshot, embedded in
// ClusterHealthz and used by tests and smoke scripts.
type Resilience struct {
	RetryBudgetTokens float64           `json:"retry_budget_tokens"`
	RetryBudgetSpent  uint64            `json:"retry_budget_spent"`
	RetryBudgetDenied uint64            `json:"retry_budget_denied"`
	Hedges            uint64            `json:"hedges"`
	HedgeWins         uint64            `json:"hedge_wins"`
	BreakerSkips      uint64            `json:"breaker_skips"`
	DeadlineExpired   uint64            `json:"deadline_expired"`
	Breakers          map[string]string `json:"breakers"`
}

// ResilienceSnapshot returns the current containment state. Every token
// drawn from the retry budget became a re-route or a hedge, every refusal
// a router_retry_budget_exhausted_total: the series are the only tallies.
func (r *Router) ResilienceSnapshot() Resilience {
	out := Resilience{
		RetryBudgetTokens: r.budget.Tokens(),
		RetryBudgetSpent:  uint64(r.metReroutes.Value() + r.metHedges.Value()),
		RetryBudgetDenied: uint64(r.metBudgetDenied.Value()),
		Hedges:            uint64(r.metHedges.Value()),
		HedgeWins:         uint64(r.metHedgeWins.Value()),
		BreakerSkips:      uint64(r.metBreakerSkips.Value()),
		DeadlineExpired:   uint64(r.metDeadline.Value()),
		Breakers:          make(map[string]string, len(r.breakers)),
	}
	for name, br := range r.breakers {
		out.Breakers[name] = br.State()
	}
	return out
}

// reject writes one of the router's own refusals and counts it; an empty
// retry budget also tells the client when to come back.
func (r *Router) reject(w http.ResponseWriter, status int, code, msg string) {
	r.metRejects.Inc()
	if code == codeRetryBudgetExhausted {
		w.Header().Set("Retry-After", "1")
	}
	obs.WriteError(w, status, code, msg)
}

// notFound is the route of a malformed path: a 404 saying what to ask.
func (r *Router) notFound(msg string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		r.reject(w, http.StatusNotFound, obs.CodeNotFound, msg)
	}
}

// backend returns the backend the request's {backend} path value names,
// or refuses the request with a 404.
func (r *Router) backend(w http.ResponseWriter, req *http.Request) (*Backend, bool) {
	name := req.PathValue("backend")
	b, ok := r.byName[name]
	if !ok {
		r.reject(w, http.StatusNotFound, obs.CodeNotFound, "unknown backend "+name)
	}
	return b, ok
}

// takeRetryToken draws one retry-budget token for a forward past the
// first choice; an empty bucket counts a denial.
func (r *Router) takeRetryToken() bool {
	ok := r.budget.Take()
	if !ok {
		r.metBudgetDenied.Inc()
	}
	return ok
}

// latRingCap bounds the latency ring feeding the hedge trigger.
const latRingCap = 64

// latRingMin is the minimum sample count before the ring's p95
// replaces the configured HedgeAfter delay.
const latRingMin = 8

// routeView is the part of a solve body the router itself reads: the
// matrix spec (shard key), the wait flag (failed-result re-routing),
// and the client deadline (decremented per hop). Everything else
// passes through opaque — full validation is the backend's job.
type routeView struct {
	Matrix     server.MatrixSpec `json:"matrix"`
	Wait       bool              `json:"wait,omitempty"`
	DeadlineMS int64             `json:"deadline_ms,omitempty"`
}

// RoutedJob is the router's wire form of a job: the backend's JobJSON
// with the id qualified as "backend/id" plus the federation accounting.
type RoutedJob struct {
	server.JobJSON
	// Backend names the shard that holds the job.
	Backend string `json:"backend,omitempty"`
	// Hops counts the backends tried for this solve, including the one
	// that took it (1 = first choice).
	Hops int `json:"hops,omitempty"`
	// Hedged marks a solve won by the hedged second attempt.
	Hedged bool `json:"hedged,omitempty"`
}

// forwardHeader is the header of a request the router sends downstream.
func forwardHeader(req *http.Request) http.Header {
	return copyHop(make(http.Header), req.Header)
}

// attempt is one upstream solve attempt's drained response.
type attempt struct {
	status int
	header http.Header
	body   []byte
	err    error
	hedged bool
}

// copyHop copies the headers the router carries across a hop, both ways
// — the trace context and the content type — from src to dst.
func copyHop(dst, src http.Header) http.Header {
	for _, k := range [...]string{"traceparent", "Content-Type"} {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
	return dst
}

// verdict is what a backend's answer to POST /solve means to the router.
type verdict int

const (
	accept      verdict = iota // the backend's job is the answer
	passThrough                // a 4xx: no backend will like the request better
	retry                      // overloaded, failing or incoherent: try the next candidate
)

// classify gives a drained response its one meaning, for the forwarding
// loop and for a raced hedge loser alike: a retry is a breaker Failure,
// anything else — a 4xx included, the backend answered coherently — a
// Success. A 2xx must carry a decodable job, and when the client waited
// for it, one the backend finished: a node that died mid-solve answers
// 200 with state "failed". why says what a retry is for; job is the
// decoded body of an accept and of a failed job.
func classify(a attempt, wait bool) (v verdict, job server.JobJSON, why string) {
	switch {
	case a.status == http.StatusTooManyRequests || a.status == http.StatusServiceUnavailable:
		return retry, job, strings.TrimSpace(string(a.body))
	case a.status >= 500:
		return retry, job, fmt.Sprintf("HTTP %d", a.status)
	case a.status >= 400:
		return passThrough, job, ""
	}
	if err := json.Unmarshal(a.body, &job); err != nil {
		return retry, server.JobJSON{}, fmt.Sprintf("bad job body: %v", err)
	}
	if wait && job.State == "failed" {
		return retry, job, "job failed: " + job.Error
	}
	return accept, job, ""
}

// rewriteDeadline stamps the remaining deadline into the solve body so
// both the header and the job JSON carry the decremented value. All
// other fields stay byte-identical (RawMessage, not any): the router
// treats the body as opaque, and a round-trip through float64 would
// corrupt integers above 2^53.
func rewriteDeadline(body []byte, remainingMS int64) []byte {
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		return body
	}
	m["deadline_ms"] = json.RawMessage(strconv.FormatInt(remainingMS, 10))
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// recordLatency feeds the hedge trigger's p95 ring.
func (r *Router) recordLatency(sec float64) {
	r.mu.Lock()
	if len(r.latRing) < latRingCap {
		r.latRing = append(r.latRing, sec)
	} else {
		r.latRing[r.latNext] = sec
		r.latNext = (r.latNext + 1) % latRingCap
	}
	r.mu.Unlock()
}

// hedgeDelay returns the seconds to wait before hedging: the rolling
// p95 of recent solve latencies once enough samples exist, otherwise
// the configured floor (or 100ms when only a header opted in).
func (r *Router) hedgeDelay() float64 {
	floor := r.hedgeAfter
	if floor <= 0 {
		floor = 0.1
	}
	r.mu.Lock()
	n := len(r.latRing)
	var tmp []float64
	if n >= latRingMin {
		tmp = append([]float64(nil), r.latRing...)
	}
	r.mu.Unlock()
	if tmp == nil {
		return floor
	}
	sort.Float64s(tmp)
	idx := (len(tmp)*95 + 99) / 100
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// nextHedgeCandidate picks the first breaker-admitted backend from
// candidates[from:] to serve as the hedge target. Selection is
// side-effect free (Peek, not Allow): the breaker's probe slot is only
// consumed if the hedge actually dispatches.
func (r *Router) nextHedgeCandidate(candidates []*Backend, from int) *Backend {
	for i := from; i < len(candidates); i++ {
		if r.breakers[candidates[i].Name()].Peek() {
			return candidates[i]
		}
	}
	return nil
}

// reapLoser records the raced loser's outcome on its breaker. A loser
// that was canceled before responding carries no health signal, so its
// breaker just releases the probe slot; a real response counts the way
// the main loop counts it (only waited solves are hedged).
func (r *Router) reapLoser(a attempt, br *Breaker) {
	if a.err != nil {
		br.Release()
		return
	}
	if v, _, _ := classify(a, true); v == retry {
		br.Failure()
		return
	}
	br.Success()
}

// dispatch sends one attempt, optionally racing a hedge: if the
// primary has not answered within delay seconds, a second attempt goes
// to alt (spending a retry-budget token and the alt breaker's probe
// slot), the first response wins and the loser's context is canceled.
// The winner's breaker outcome is recorded by the caller; the loser's
// is recorded here when it is reaped.
func (r *Router) dispatch(req *http.Request, b, alt *Backend, hdr http.Header, body []byte, hedge bool, delay float64) attempt {
	if !hedge || alt == nil {
		status, h, respBody, err := b.fetch(req.Context(), http.MethodPost, "/solve", req.URL.RawQuery, hdr, body)
		return attempt{status: status, header: h, body: respBody, err: err}
	}
	ch := make(chan attempt, 2)
	var cancels [2]context.CancelFunc
	launch := func(slot int, target *Backend, hedged bool) {
		ctx, cancel := context.WithCancel(req.Context())
		cancels[slot] = cancel
		go func() {
			status, h, respBody, err := target.fetch(ctx, http.MethodPost, "/solve", req.URL.RawQuery, hdr, body)
			ch <- attempt{status: status, header: h, body: respBody, err: err, hedged: hedged}
		}()
	}
	launch(0, b, false)
	fired := make(chan struct{})
	timer := r.clock.AfterFunc(time.Duration(delay*float64(time.Second)), func() { close(fired) })
	defer timer.Stop()
	inFlight := 1
	select {
	case first := <-ch:
		cancels[0]()
		return first
	case <-fired:
	}
	// Launch the hedge only if the alt's breaker still admits it (the
	// probe slot is consumed here, at dispatch, never during selection)
	// and the retry budget has a token.
	altBr := r.breakers[alt.Name()]
	if altBr.Allow() {
		if r.takeRetryToken() {
			r.metHedges.Inc()
			launch(1, alt, true)
			inFlight++
		} else {
			altBr.Release()
		}
	}
	winner := <-ch
	for _, cancel := range cancels {
		if cancel != nil {
			cancel()
		}
	}
	if inFlight > 1 {
		// Reap the loser so its body is released and its breaker sees an
		// outcome (or at least frees its probe slot).
		loserBr := altBr
		if winner.hedged {
			loserBr = r.breakers[b.Name()]
		}
		go func() {
			r.reapLoser(<-ch, loserBr)
		}()
	}
	if winner.hedged {
		r.metHedgeWins.Inc()
	}
	return winner
}

// rejection is a refusal of the router's own: the stages of POST /solve
// return one instead of writing it.
type rejection struct {
	status    int
	code, msg string
}

// solve is a decoded POST /solve: the body, passed on opaque but for the
// deadline, and what the router reads of it and of Solve-Control.
type solve struct {
	body       []byte
	key        string // shard key
	wait       bool
	hops       int   // hop budget
	deadlineMS int64 // client deadline, header over body; 0 means none
	hedge      bool
}

// decode is the first stage of POST /solve: the control header, the
// bounded body and its route view, ending in the shard key and the hop,
// deadline, hedge and wait settings. It writes nothing (w only arms
// http.MaxBytesReader).
func (r *Router) decode(w http.ResponseWriter, req *http.Request) (s solve, rej *rejection) {
	ctl, err := server.ParseSolveControl(req.Header.Get(server.SolveControlHeader))
	if err != nil {
		return s, &rejection{http.StatusBadRequest, obs.CodeBadRequest, err.Error()}
	}
	body, err := server.ReadBody(w, req)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return s, &rejection{http.StatusRequestEntityTooLarge, obs.CodeRequestTooLarge, err.Error()}
		}
		return s, &rejection{http.StatusBadRequest, obs.CodeBadRequest, "read body: " + err.Error()}
	}
	var view routeView
	if err := json.Unmarshal(body, &view); err != nil {
		return s, &rejection{http.StatusBadRequest, obs.CodeBadRequest, "bad request body: " + err.Error()}
	}
	key, err := ShardKey(view.Matrix)
	if err != nil {
		return s, &rejection{http.StatusBadRequest, obs.CodeBadRequest, err.Error()}
	}
	if len(r.backends) == 0 {
		return s, &rejection{http.StatusServiceUnavailable, codeNoBackend, "no backends configured"}
	}
	s = solve{body: body, key: key, wait: view.Wait || req.URL.Query().Get("wait") == "true",
		hops: min(r.maxHops, len(r.backends)), deadlineMS: ctl.DeadlineMS}
	if ctl.MaxHops > 0 && ctl.MaxHops < s.hops {
		s.hops = ctl.MaxHops
	}
	if s.deadlineMS == 0 {
		s.deadlineMS = view.DeadlineMS
	}
	s.hedge = s.wait && r.hedgeAfter > 0
	if ctl.Hedge != nil {
		s.hedge = s.wait && *ctl.Hedge
	}
	return s, nil
}

// settled is the attempt that ends a solve: an accepted job, or a 4xx
// the client gets verbatim.
type settled struct {
	attempt
	verdict verdict
	job     server.JobJSON
	backend string
	hops    int
	prior   int // attempts burned by failed jobs on earlier candidates
}

// forward is the second stage of POST /solve: it walks the shard's
// candidates under the hop budget — breaker, deadline, retry token,
// dispatch, classify — and returns the attempt that settles the solve or
// the rejection that ends it. It writes nothing.
func (r *Router) forward(req *http.Request, s solve) (settled, *rejection) {
	candidates := rank(r.backends, s.key, r.shardMap)
	start := r.clock.Now()
	priorAttempts := 0
	sent := 0
	var lastErr string
	for idx := 0; idx < len(candidates) && sent < s.hops; idx++ {
		b := candidates[idx]
		br := r.breakers[b.Name()]
		if !br.Allow() {
			// Open breaker: skip without spending a hop or a budget
			// token — the point is to NOT hammer the dead node.
			r.metBreakerSkips.Inc()
			lastErr = fmt.Sprintf("backend %s: breaker open", b.Name())
			continue
		}
		// Check the deadline before spending a hop or a retry-budget
		// token: expired work must not drain the budget.
		var remaining int64
		if s.deadlineMS > 0 {
			remaining = s.deadlineMS - r.clock.Now().Sub(start).Milliseconds()
			if remaining <= 0 {
				r.metDeadline.Inc()
				br.Release()
				return settled{}, &rejection{http.StatusGatewayTimeout, codeDeadlineExhausted,
					fmt.Sprintf("client deadline of %dms expired after %d attempts", s.deadlineMS, sent)}
			}
		}
		if sent > 0 {
			// Every forward past the first dispatched attempt draws from
			// the retry budget; an empty bucket means stop, not storm.
			if !r.takeRetryToken() {
				br.Release()
				return settled{}, &rejection{http.StatusServiceUnavailable, codeRetryBudgetExhausted,
					fmt.Sprintf("retry budget exhausted after %d attempts: %s", sent, lastErr)}
			}
			r.metReroutes.Inc()
		}
		sent++
		hdr := forwardHeader(req)
		body := s.body
		if s.deadlineMS > 0 {
			hdr.Set(server.SolveControlHeader, server.SolveControl{DeadlineMS: remaining}.String())
			body = rewriteDeadline(s.body, remaining)
		}
		var alt *Backend
		if s.hedge {
			alt = r.nextHedgeCandidate(candidates, idx+1)
		}
		attemptStart := r.clock.Now()
		a := r.dispatch(req, b, alt, hdr, body, s.hedge, r.hedgeDelay())
		if a.hedged {
			b = alt
			br = r.breakers[alt.Name()]
		}
		if a.err != nil {
			br.Failure()
			lastErr = a.err.Error()
			continue
		}
		v, job, why := classify(a, s.wait)
		if v == retry {
			br.Failure()
			if job.State == "failed" {
				// The backend accepted but could not finish the job: the
				// next shard candidate carries the burned attempts along
				// so the federation's accounting matches a single node's.
				priorAttempts += attemptCount(job)
			}
			lastErr = fmt.Sprintf("backend %s: %s", b.Name(), why)
			continue
		}
		// A pass-through 4xx is the client's error: the backend answered
		// coherently, so its breaker sees a success too.
		br.Success()
		if v == accept {
			r.budget.Earn()
			if s.wait {
				r.recordLatency(r.clock.Now().Sub(attemptStart).Seconds())
			}
			r.metSolves.Inc()
		}
		return settled{attempt: a, verdict: v, job: job, backend: b.Name(), hops: sent, prior: priorAttempts}, nil
	}
	detail := ""
	if lastErr != "" {
		detail = ": last error: " + lastErr
	}
	if sent >= s.hops && s.hops < len(candidates) {
		return settled{}, &rejection{http.StatusServiceUnavailable, codeHopLimit,
			fmt.Sprintf("hop limit %d reached with %d candidates left%s", s.hops, len(candidates)-s.hops, detail)}
	}
	return settled{}, &rejection{http.StatusServiceUnavailable, codeShardUnavailable,
		fmt.Sprintf("all %d backends for shard %s unavailable%s", len(candidates), s.key, detail)}
}

// respond is the last stage of POST /solve and the only one that writes:
// the rejection, the backend's 4xx verbatim, or the job with its id
// qualified and the federation's accounting.
func (r *Router) respond(w http.ResponseWriter, won settled, rej *rejection) {
	if rej != nil {
		r.reject(w, rej.status, rej.code, rej.msg)
		return
	}
	copyHop(w.Header(), won.header)
	if won.verdict == passThrough {
		w.WriteHeader(won.status)
		_, _ = w.Write(won.body)
		return
	}
	out := RoutedJob{JobJSON: won.job, Backend: won.backend, Hops: won.hops, Hedged: won.hedged}
	out.ID = won.backend + "/" + won.job.ID
	if won.prior > 0 {
		out.Attempts = won.prior + attemptCount(won.job)
	}
	obs.WriteJSON(w, won.status, out)
}

func (r *Router) handleSolve(w http.ResponseWriter, req *http.Request) {
	s, rej := r.decode(w, req)
	var won settled
	if rej == nil {
		won, rej = r.forward(req, s)
	}
	r.respond(w, won, rej)
}

// attemptCount reads a job's attempt tally (the wire form omits 1).
func attemptCount(j server.JobJSON) int {
	if j.Attempts > 0 {
		return j.Attempts
	}
	return 1
}

// proxyJob proxies a job lookup to its backend: the job body comes back
// with its id qualified as backend/id, a sub-resource (trace.json,
// spans.jsonl) streams through untouched.
func (r *Router) proxyJob(sub bool) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		b, ok := r.backend(w, req)
		if !ok {
			return
		}
		path := "/jobs/" + req.PathValue("id")
		if sub {
			path += "/" + req.PathValue("sub")
		}
		resp, err := b.do(http.MethodGet, path, req.URL.RawQuery, forwardHeader(req), nil)
		if err != nil {
			r.reject(w, http.StatusBadGateway, codeUpstreamError, err.Error())
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK && !sub {
			respBody, err := io.ReadAll(resp.Body)
			if err != nil {
				r.reject(w, http.StatusBadGateway, codeUpstreamError, err.Error())
				return
			}
			var job server.JobJSON
			if json.Unmarshal(respBody, &job) == nil {
				out := RoutedJob{JobJSON: job, Backend: b.Name()}
				out.ID = b.Name() + "/" + job.ID
				copyHop(w.Header(), resp.Header)
				obs.WriteJSON(w, http.StatusOK, out)
				return
			}
			copyHop(w.Header(), resp.Header)
			w.WriteHeader(resp.StatusCode)
			_, _ = w.Write(respBody)
			return
		}
		copyHop(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = r.reg.WritePrometheus(w)
}

// pass proxies GET /backends/{backend}/{path...} to one backend's own
// surface (/metrics, /healthz, /slo, ...), keeping the per-backend
// Prometheus families separate from the router's.
func (r *Router) pass(deep bool) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		b, ok := r.backend(w, req)
		if !ok {
			return
		}
		path := "/" + req.PathValue("path")
		if deep {
			path += "/" + req.PathValue("sub")
		}
		resp, err := b.do(http.MethodGet, path, req.URL.RawQuery, forwardHeader(req), nil)
		if err != nil {
			r.reject(w, http.StatusBadGateway, codeUpstreamError, err.Error())
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}
}

// admin marks a backend dead or alive. A kill trips the backend's breaker
// too, so the killed node is skipped at once instead of after Threshold
// wasted forwards; a revive closes it.
func (r *Router) admin(node func(*Backend), breaker func(*Breaker)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		b, ok := r.backend(w, req)
		if !ok {
			return
		}
		node(b)
		br := r.breakers[b.Name()]
		breaker(br)
		obs.WriteJSON(w, http.StatusOK, map[string]any{
			"ok": true, "backend": b.Name(), "down": b.Down(), "breaker": br.State(),
		})
	}
}
