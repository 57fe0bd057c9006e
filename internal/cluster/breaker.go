package cluster

import (
	"sync"
	"time"

	"cagmres/internal/clock"
	"cagmres/internal/obs"
)

// Breaker states. String values surface verbatim in /healthz; the
// router_breaker_state gauge carries them as stateGauge's numbers.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

var stateGauge = map[string]float64{BreakerClosed: 0, BreakerHalfOpen: 1, BreakerOpen: 2}

// BreakerConfig parameterizes a circuit breaker. A breaker reads its
// router's clock.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker. <= 0 defaults to 5.
	Threshold int
	// Cooldown is how long (in clock seconds) an open breaker waits
	// before admitting a half-open probe. <= 0 defaults to 5s.
	Cooldown float64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5
	}
	return c
}

// Breaker is a per-backend circuit breaker: closed (traffic flows),
// open (all traffic skipped until Cooldown elapses), half-open (one
// probe in flight; its outcome closes or re-opens the circuit). It
// stops the router from hammering a dead or 5xx-ing node between
// health polls: failures there are pure waste that the hop budget
// would otherwise spend eagerly. Each transition is written to its
// series as it happens.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	clock    clock.Clock
	state    string
	fails    int       // consecutive failures while closed
	openedAt time.Time // clock time the breaker last opened
	probing  bool      // a half-open probe is in flight

	metState obs.Gauge   // router_breaker_state{backend}
	metOpens obs.Counter // router_breaker_open_total, shared by reg's breakers
}

// NewBreaker returns a closed breaker for the named backend on clk,
// writing its state and open transitions to reg.
func NewBreaker(cfg BreakerConfig, clk clock.Clock, reg *obs.Registry, backend string) *Breaker {
	b := &Breaker{cfg: cfg.withDefaults(), clock: clk,
		metState: reg.GaugeL("router_breaker_state",
			"per-backend breaker state (0 closed, 1 half-open, 2 open)", obs.L("backend", backend)),
		metOpens: reg.Counter("router_breaker_open_total", "breaker open transitions across all backends"),
	}
	b.to(BreakerClosed)
	return b
}

// to moves the breaker to state. Callers hold b.mu.
func (b *Breaker) to(state string) {
	b.state = state
	b.metState.Set(stateGauge[state])
}

// Allow reports whether a request may be sent to this backend now.
// An open breaker admits exactly one probe once Cooldown has elapsed
// (transitioning to half-open); further requests are skipped until the
// probe resolves.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clock.Now().Sub(b.openedAt).Seconds() >= b.cfg.Cooldown {
			b.to(BreakerHalfOpen)
			b.probing = true
			return true
		}
		return false
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Peek reports whether Allow would admit a request right now, without
// transitioning state or consuming the half-open probe slot. Hedge
// candidate selection uses this so that merely being *considered* as a
// hedge target never burns the probe.
func (b *Breaker) Peek() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.clock.Now().Sub(b.openedAt).Seconds() >= b.cfg.Cooldown
	case BreakerHalfOpen:
		return !b.probing
	}
	return true
}

// Release abandons an Allow-admitted request whose outcome will never
// be observed (e.g. a hedge that lost the race and was canceled before
// responding). It frees the half-open probe slot without recording a
// success or failure, so the breaker can probe again instead of
// wedging with probing set forever.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Success records a successful response: it closes the circuit from any
// state (admin revive uses it so) and resets the consecutive-failure
// count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.probing = false
	b.to(BreakerClosed)
}

// Failure records a failed response. Threshold consecutive failures
// open a closed circuit; a failed half-open probe re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.open()
		}
	}
}

// open transitions to the open state. Callers hold b.mu.
func (b *Breaker) open() {
	b.to(BreakerOpen)
	b.fails = 0
	b.probing = false
	b.metOpens.Inc()
	b.openedAt = b.clock.Now()
}

// Trip force-opens the breaker (admin kill uses this so a killed
// backend is skipped immediately rather than after Threshold wasted
// attempts).
func (b *Breaker) Trip() {
	b.mu.Lock()
	b.open()
	b.mu.Unlock()
}

// State returns "closed", "open", or "half-open".
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
