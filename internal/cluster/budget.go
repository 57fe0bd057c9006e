package cluster

import (
	"sync"

	"cagmres/internal/obs"
)

// RetryBudget is a token bucket that caps forwarding work beyond the
// first-choice backend at a fraction of successful traffic (the
// Google-SRE retry-budget pattern). Every successful solve earns Ratio
// tokens; every reroute or hedge spends one. When the bucket is empty
// the router rejects with a structured retry_budget_exhausted instead
// of multiplying load across shards — under saturation each backend
// sees at most (1+Ratio)× its organic traffic, so a retry storm cannot
// form. The token count is written to its gauge as it changes.
type RetryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
	gauge  obs.Gauge // router_retry_budget_tokens
}

// NewRetryBudget returns a budget earning ratio tokens per success,
// holding at most burst tokens, and keeping reg's
// router_retry_budget_tokens gauge. The bucket starts full so a cold
// router can still route around a dead first choice. ratio <= 0
// defaults to 0.1, burst <= 0 to 10.
func NewRetryBudget(ratio, burst float64, reg *obs.Registry) *RetryBudget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst <= 0 {
		burst = 10
	}
	b := &RetryBudget{ratio: ratio, burst: burst,
		gauge: reg.Gauge("router_retry_budget_tokens", "retry budget tokens currently available")}
	b.set(burst)
	return b
}

// set replaces the token count. Callers hold b.mu (or own b).
func (b *RetryBudget) set(tokens float64) {
	b.tokens = tokens
	b.gauge.Set(tokens)
}

// Earn credits the budget for one successful upstream response.
func (b *RetryBudget) Earn() {
	b.mu.Lock()
	b.set(min(b.tokens+b.ratio, b.burst))
	b.mu.Unlock()
}

// Take spends one token for an attempt beyond the first choice. It
// reports whether the budget allowed it.
func (b *RetryBudget) Take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.set(b.tokens - 1)
	return true
}

// Tokens returns the current token count.
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
