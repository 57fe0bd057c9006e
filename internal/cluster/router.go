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

	"cagmres/internal/obs"
	"cagmres/internal/server"
)

// Error codes of the router's obs.ErrorBody rejections, extending the
// server's vocabulary with the federation-specific ones.
const (
	codeBadRequest       = "bad_request"
	codeNotFound         = "not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeRequestTooLarge  = "request_too_large"
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
	// zero value takes the breaker defaults (threshold 5, cooldown 5s);
	// Breaker.Now defaults to Config.Now.
	Breaker BreakerConfig
	// Now supplies the router's clock (seconds) for breaker cooldowns
	// and deadline decrements. Nil means wall time; chaos replays
	// inject virtual time here for determinism.
	Now func() float64
	// HedgeAfter enables hedged wait-solves: after this many seconds
	// without a response (or the rolling p95 solve latency, once enough
	// samples exist), a second attempt goes to the next candidate and
	// the first response wins. 0 disables hedging unless a request opts
	// in via Solve-Control: hedge=on.
	HedgeAfter float64
}

// Router fronts the federation. It is an http.Handler serving:
//
//	POST /solve                     route a solve to its shard (forwarding
//	                                on overload/death, bounded hops)
//	GET  /jobs/{backend}/{id}[/..]  proxy a job lookup to its backend
//	GET  /healthz                   aggregated cluster health
//	GET  /slo                       aggregated per-backend SLO reports
//	GET  /metrics                   the router's own instruments
//	GET  /backends/{name}/{path}    pass one backend's surface through
//	POST /admin/kill/{name}         mark a backend dead (simulated node death)
//	POST /admin/revive/{name}       bring it back
type Router struct {
	backends   []*Backend
	byName     map[string]*Backend
	maxHops    int
	shardMap   *ShardMap
	reg        *obs.Registry
	mux        *http.ServeMux
	budget     *RetryBudget
	breakers   map[string]*Breaker
	now        func() float64
	hedgeAfter float64
	simd       string // obs.HostKernels, for /healthz

	// scrapeMu serializes scrape-time reconciliation of cumulative
	// breaker opens into the metBreakerOpen counter.
	scrapeMu sync.Mutex

	mu      sync.Mutex
	latRing []float64 // recent successful solve latencies (p95 source)
	latNext int

	// The router's only event tallies: Counts, ResilienceSnapshot and
	// /healthz read these series back.
	metSolves       obs.Counter
	metReroutes     obs.Counter
	metRejects      obs.Counter
	metBudgetTokens obs.Gauge
	metBudgetDenied obs.Counter
	metBreakerSkips obs.Counter
	metBreakerOpen  obs.Counter
	metHedges       obs.Counter
	metHedgeWins    obs.Counter
	metDeadline     obs.Counter
	metBreakerState map[string]obs.Gauge
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
	now := cfg.Now
	if now == nil {
		now = func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	}
	brCfg := cfg.Breaker
	if brCfg.Now == nil {
		brCfg.Now = now
	}
	r := &Router{
		backends:   cfg.Backends,
		byName:     make(map[string]*Backend, len(cfg.Backends)),
		maxHops:    maxHops,
		shardMap:   cfg.ShardMap,
		reg:        cfg.Registry,
		mux:        http.NewServeMux(),
		budget:     NewRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		breakers:   make(map[string]*Breaker, len(cfg.Backends)),
		now:        now,
		hedgeAfter: cfg.HedgeAfter,
		simd:       obs.HostKernels(cfg.Registry),
		latRing:    make([]float64, 0, latRingCap),
	}
	r.metBreakerState = make(map[string]obs.Gauge, len(cfg.Backends))
	for _, b := range cfg.Backends {
		r.byName[b.Name()] = b
		r.breakers[b.Name()] = NewBreaker(brCfg)
		r.metBreakerState[b.Name()] = cfg.Registry.GaugeL("router_breaker_state",
			"per-backend breaker state (0 closed, 1 half-open, 2 open)", obs.L("backend", b.Name()))
	}
	r.metSolves = cfg.Registry.Counter("router_solves_total", "solve requests routed to a backend")
	r.metReroutes = cfg.Registry.Counter("router_reroutes_total", "forward hops past the first-choice backend")
	r.metRejects = cfg.Registry.Counter("router_rejects_total", "solve requests rejected by the router itself")
	r.metBudgetTokens = cfg.Registry.Gauge("router_retry_budget_tokens", "retry budget tokens currently available")
	r.metBudgetTokens.Set(r.budget.Tokens())
	r.metBudgetDenied = cfg.Registry.Counter("router_retry_budget_exhausted_total", "forwards refused because the retry budget was empty")
	r.metBreakerSkips = cfg.Registry.Counter("router_breaker_skips_total", "candidate backends skipped because their breaker was open")
	r.metBreakerOpen = cfg.Registry.Counter("router_breaker_open_total", "breaker open transitions across all backends")
	r.metHedges = cfg.Registry.Counter("router_hedges_total", "hedged second attempts launched")
	r.metHedgeWins = cfg.Registry.Counter("router_hedge_wins_total", "solves won by the hedged attempt")
	r.metDeadline = cfg.Registry.Counter("router_deadline_expired_total", "solves rejected because the client deadline expired at the router")
	r.mux.HandleFunc("/solve", r.handleSolve)
	r.mux.HandleFunc("/jobs/", r.handleJob)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/slo", r.handleSLO)
	r.mux.HandleFunc("/metrics", r.handleMetrics)
	r.mux.HandleFunc("/backends/", r.handleBackendPass)
	r.mux.HandleFunc("/admin/kill/", r.handleAdmin)
	r.mux.HandleFunc("/admin/revive/", r.handleAdmin)
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

// refreshBreakerGauges pushes breaker states and open transitions into
// the metric families (states only change on traffic, so exporting at
// scrape time loses nothing). scrapeMu serializes the counter's
// read-reconcile-add so concurrent scrapes cannot double-count.
func (r *Router) refreshBreakerGauges() {
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	var opens uint64
	for name, br := range r.breakers {
		var v float64
		switch br.State() {
		case BreakerHalfOpen:
			v = 1
		case BreakerOpen:
			v = 2
		}
		r.metBreakerState[name].Set(v)
		opens += br.Opens()
	}
	if delta := float64(opens) - r.metBreakerOpen.Value(); delta > 0 {
		r.metBreakerOpen.Add(delta)
	}
	r.metBudgetTokens.Set(r.budget.Tokens())
}

func (r *Router) reject(w http.ResponseWriter, status int, code, msg string) {
	r.metRejects.Inc()
	obs.WriteError(w, status, code, msg)
}

// takeRetryToken draws one retry-budget token for a forward past the
// first choice and accounts for the draw: the tokens gauge either way,
// the denied counter when the bucket was empty.
func (r *Router) takeRetryToken() bool {
	ok := r.budget.Take()
	if !ok {
		r.metBudgetDenied.Inc()
	}
	r.metBudgetTokens.Set(r.budget.Tokens())
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

// forwardHeader copies the headers the router propagates downstream.
func forwardHeader(req *http.Request) http.Header {
	h := make(http.Header)
	if tp := req.Header.Get("traceparent"); tp != "" {
		h.Set("traceparent", tp)
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	return h
}

// attempt is one upstream solve attempt's drained response.
type attempt struct {
	status int
	header http.Header
	body   []byte
	err    error
	hedged bool
}

// echoHeader forwards the traceparent echo and the content type of a
// backend response.
func echoHeader(w http.ResponseWriter, from http.Header) {
	for _, k := range [...]string{"traceparent", "Content-Type"} {
		if v := from.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
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
	timer := time.NewTimer(time.Duration(delay * float64(time.Second)))
	defer timer.Stop()
	inFlight := 1
	select {
	case first := <-ch:
		cancels[0]()
		return first
	case <-timer.C:
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

func (r *Router) handleSolve(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		r.reject(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only")
		return
	}
	ctl, err := server.ParseSolveControl(req.Header.Get(server.SolveControlHeader))
	if err != nil {
		r.reject(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, server.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			r.reject(w, http.StatusRequestEntityTooLarge, codeRequestTooLarge, err.Error())
			return
		}
		r.reject(w, http.StatusBadRequest, codeBadRequest, "read body: "+err.Error())
		return
	}
	var view routeView
	if err := json.Unmarshal(body, &view); err != nil {
		r.reject(w, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error())
		return
	}
	key, err := ShardKey(view.Matrix)
	if err != nil {
		r.reject(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if len(r.backends) == 0 {
		r.reject(w, http.StatusServiceUnavailable, codeNoBackend, "no backends configured")
		return
	}
	wait := view.Wait || req.URL.Query().Get("wait") == "true"
	candidates := rank(r.backends, key, r.shardMap)
	budget := r.maxHops
	if budget > len(candidates) {
		budget = len(candidates)
	}
	if ctl.MaxHops > 0 && ctl.MaxHops < budget {
		budget = ctl.MaxHops
	}
	deadlineMS := ctl.DeadlineMS
	if deadlineMS == 0 {
		deadlineMS = view.DeadlineMS
	}
	hedge := wait && r.hedgeAfter > 0
	if ctl.Hedge != nil {
		hedge = wait && *ctl.Hedge
	}
	start := r.now()

	priorAttempts := 0
	sent := 0
	var lastErr string
	for idx := 0; idx < len(candidates) && sent < budget; idx++ {
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
		if deadlineMS > 0 {
			remaining = deadlineMS - int64((r.now()-start)*1000)
			if remaining <= 0 {
				r.metDeadline.Inc()
				r.reject(w, http.StatusGatewayTimeout, codeDeadlineExhausted,
					fmt.Sprintf("client deadline of %dms expired after %d attempts", deadlineMS, sent))
				return
			}
		}
		if sent > 0 {
			// Every forward past the first dispatched attempt draws from
			// the retry budget; an empty bucket means stop, not storm.
			if !r.takeRetryToken() {
				w.Header().Set("Retry-After", "1")
				r.reject(w, http.StatusServiceUnavailable, codeRetryBudgetExhausted,
					fmt.Sprintf("retry budget exhausted after %d attempts: %s", sent, lastErr))
				return
			}
			r.metReroutes.Inc()
		}
		sent++
		hdr := forwardHeader(req)
		outBody := body
		if deadlineMS > 0 {
			hdr.Set(server.SolveControlHeader, server.SolveControl{DeadlineMS: remaining}.String())
			outBody = rewriteDeadline(body, remaining)
		}
		var alt *Backend
		if hedge {
			alt = r.nextHedgeCandidate(candidates, idx+1)
		}
		attemptStart := r.now()
		a := r.dispatch(req, b, alt, hdr, outBody, hedge, r.hedgeDelay())
		if a.hedged {
			b = alt
			br = r.breakers[alt.Name()]
		}
		if a.err != nil {
			br.Failure()
			lastErr = a.err.Error()
			continue
		}
		v, job, why := classify(a, wait)
		switch v {
		case retry:
			br.Failure()
			if job.State == "failed" {
				// The backend accepted but could not finish the job: the
				// next shard candidate carries the burned attempts along
				// so the federation's accounting matches a single node's.
				priorAttempts += attemptCount(job)
			}
			lastErr = fmt.Sprintf("backend %s: %s", b.Name(), why)
			continue
		case passThrough:
			// Pass the backend's structured rejection through verbatim.
			br.Success()
			echoHeader(w, a.header)
			w.WriteHeader(a.status)
			_, _ = w.Write(a.body)
			return
		}
		br.Success()
		r.budget.Earn()
		r.metBudgetTokens.Set(r.budget.Tokens())
		if wait {
			r.recordLatency(r.now() - attemptStart)
		}
		r.metSolves.Inc()
		out := RoutedJob{JobJSON: job, Backend: b.Name(), Hops: sent, Hedged: a.hedged}
		out.ID = b.Name() + "/" + job.ID
		if priorAttempts > 0 {
			out.Attempts = priorAttempts + attemptCount(job)
		}
		echoHeader(w, a.header)
		obs.WriteJSON(w, a.status, out)
		return
	}
	detail := ""
	if lastErr != "" {
		detail = ": last error: " + lastErr
	}
	if sent >= budget && budget < len(candidates) {
		r.reject(w, http.StatusServiceUnavailable, codeHopLimit,
			fmt.Sprintf("hop limit %d reached with %d candidates left%s", budget, len(candidates)-budget, detail))
		return
	}
	r.reject(w, http.StatusServiceUnavailable, codeShardUnavailable,
		fmt.Sprintf("all %d backends for shard %s unavailable%s", len(candidates), key, detail))
}

// attemptCount reads a job's attempt tally (the wire form omits 1).
func attemptCount(j server.JobJSON) int {
	if j.Attempts > 0 {
		return j.Attempts
	}
	return 1
}

func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.reject(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, "/jobs/")
	name, sub, ok := strings.Cut(rest, "/")
	if !ok || name == "" || sub == "" {
		r.reject(w, http.StatusNotFound, codeNotFound,
			"cluster job ids are backend/id; want /jobs/{backend}/{id}")
		return
	}
	b, found := r.byName[name]
	if !found {
		r.reject(w, http.StatusNotFound, codeNotFound, "unknown backend "+name)
		return
	}
	resp, err := b.do(http.MethodGet, "/jobs/"+sub, req.URL.RawQuery, forwardHeader(req), nil)
	if err != nil {
		r.reject(w, http.StatusBadGateway, codeUpstreamError, err.Error())
		return
	}
	defer resp.Body.Close()
	// Qualify the id on plain job bodies; sub-resources (trace.json,
	// spans.jsonl) stream through untouched.
	if resp.StatusCode == http.StatusOK && !strings.Contains(sub, "/") {
		respBody, err := io.ReadAll(resp.Body)
		if err != nil {
			r.reject(w, http.StatusBadGateway, codeUpstreamError, err.Error())
			return
		}
		var job server.JobJSON
		if json.Unmarshal(respBody, &job) == nil {
			out := RoutedJob{JobJSON: job, Backend: name}
			out.ID = name + "/" + job.ID
			echoHeader(w, resp.Header)
			obs.WriteJSON(w, http.StatusOK, out)
			return
		}
		echoHeader(w, resp.Header)
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(respBody)
		return
	}
	echoHeader(w, resp.Header)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.reject(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET only")
		return
	}
	r.refreshBreakerGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = r.reg.WritePrometheus(w)
}

// handleBackendPass proxies GET /backends/{name}/{path} to one
// backend's own surface (/metrics, /healthz, /slo, ...), keeping the
// per-backend Prometheus families separate from the router's.
func (r *Router) handleBackendPass(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.reject(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, "/backends/")
	name, sub, ok := strings.Cut(rest, "/")
	if !ok || name == "" || sub == "" {
		r.reject(w, http.StatusNotFound, codeNotFound, "want /backends/{name}/{path}")
		return
	}
	b, found := r.byName[name]
	if !found {
		r.reject(w, http.StatusNotFound, codeNotFound, "unknown backend "+name)
		return
	}
	resp, err := b.do(http.MethodGet, "/"+sub, req.URL.RawQuery, forwardHeader(req), nil)
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

func (r *Router) handleAdmin(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		r.reject(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only")
		return
	}
	var name, action string
	switch {
	case strings.HasPrefix(req.URL.Path, "/admin/kill/"):
		name, action = strings.TrimPrefix(req.URL.Path, "/admin/kill/"), "kill"
	case strings.HasPrefix(req.URL.Path, "/admin/revive/"):
		name, action = strings.TrimPrefix(req.URL.Path, "/admin/revive/"), "revive"
	}
	b, found := r.byName[name]
	if !found {
		r.reject(w, http.StatusNotFound, codeNotFound, "unknown backend "+name)
		return
	}
	if action == "kill" {
		b.Kill()
		// Trip the breaker too, so the killed node is skipped instantly
		// instead of after Threshold wasted forwards.
		r.breakers[name].Trip()
	} else {
		b.Revive()
		r.breakers[name].Reset()
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"ok": true, "backend": name, "down": b.Down(), "breaker": r.breakers[name].State(),
	})
}
