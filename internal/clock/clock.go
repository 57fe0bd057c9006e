// Package clock is the serving stack's one time source. The scheduler,
// the router and its breakers, and the SLO engine read the Clock they are
// given; Wall is the only code under internal/ that reads wall time.
package clock

import "time"

// Clock is a time source: every stamp, timer and span edge of its user
// reads it. Wall is the real one; sched.Virtual is the deterministic one.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// AfterFunc calls f once d has elapsed on this clock.
	AfterFunc(d time.Duration, f func()) Timer
	// Attempt is called by a scheduler lease after each solve attempt
	// that began at start, with the modeled seconds the attempt charged
	// to the lease's ledger. The wall clock ignores it (the solve already
	// spent wall time); the virtual clock holds the lease until its time
	// reaches start plus those seconds.
	Attempt(start time.Time, seconds float64)
}

// Timer is a pending AfterFunc call; Stop cancels it and reports whether
// it had not fired yet.
type Timer interface {
	Stop() bool
}

// Wall is the wall clock, what a nil Clock means wherever one is taken.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

func (wall) Attempt(time.Time, float64) {}

// Seconds renders an instant in the float Unix-seconds form of span
// edges and SLO sample times.
func Seconds(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }
