package sched

import "time"

// Clock is the scheduler's one time source: every stamp, timer and span
// edge in this package reads it. Config.Clock nil is the wall clock;
// Virtual is the deterministic one.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// AfterFunc calls f once d has elapsed on this clock.
	AfterFunc(d time.Duration, f func()) Timer
	// Attempt is called by a lease after each solve attempt that began at
	// start, with the modeled seconds the attempt charged to the lease's
	// ledger. The wall clock ignores it (the solve already spent wall
	// time); the virtual clock holds the lease until its time reaches
	// start plus those seconds.
	Attempt(start time.Time, seconds float64)
}

// Timer is a pending AfterFunc call; Stop cancels it and reports whether
// it had not fired yet.
type Timer interface {
	Stop() bool
}

// wallClock is the default Clock and the package's only wall-time read.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

func (wallClock) Attempt(time.Time, float64) {}
