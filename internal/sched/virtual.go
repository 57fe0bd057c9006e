package sched

import (
	"container/heap"
	"math"
	"time"

	"cagmres/internal/clock"
)

// Virtual is a deterministic clock.Clock and the event loop that runs a
// Scheduler on it without Start and without worker goroutines. Run
// leases queued batches through the same popBatch and execute the
// workers use whenever a pooled context is free, and a solve attempt
// lasts the modeled seconds it charged to the lease's ledger. Only one
// goroutine runs at a time — the loop, or the one lease it resumed — and
// events fire in (instant, sequence) order, so a run is a pure function
// of what was scheduled on it.
//
// A lease computes its solve before it parks for the solve's modeled
// time, so on this clock a cancellation or deadline takes effect at
// dispatch, not mid-solve. Drive a Virtual from one goroutine: submit
// before Run or from AfterFunc callbacks, and observe completions with
// WhenDone.
type Virtual struct {
	now     time.Time
	seq     uint64
	events  eventQueue
	watches []watch
	handoff chan struct{} // the running lease gives control back: parked or finished
}

type watch struct {
	j *Job
	f func()
}

// NewVirtual returns a virtual clock reading the Unix epoch, so its
// Unix seconds are seconds since the run began.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Unix(0, 0), handoff: make(chan struct{})}
}

// Now returns the loop's current instant.
func (v *Virtual) Now() time.Time { return v.now }

// AfterFunc schedules f on the loop d after the current instant.
func (v *Virtual) AfterFunc(d time.Duration, f func()) clock.Timer {
	return v.at(v.now.Add(d), f)
}

func (v *Virtual) at(t time.Time, f func()) *event {
	e := &event{v: v, at: t, seq: v.seq, f: f}
	v.seq++
	heap.Push(&v.events, e)
	return e
}

// Attempt parks the calling lease until the loop reaches start plus
// seconds, rounded once to the nanosecond.
func (v *Virtual) Attempt(start time.Time, seconds float64) {
	wake := make(chan struct{})
	v.at(start.Add(time.Duration(math.Round(seconds*1e9))), func() {
		close(wake)
		<-v.handoff
	})
	v.handoff <- struct{}{}
	<-wake
}

// WhenDone calls f on the loop at the instant j reaches a terminal state.
func (v *Virtual) WhenDone(j *Job, f func()) {
	v.watches = append(v.watches, watch{j, f})
}

// Run drives s until no event is left: it leases queued batches while a
// pooled context is free — an idle context takes a job the instant it
// is queued, as a waiting worker does — then fires the next event.
func (v *Virtual) Run(s *Scheduler) {
	for {
		for len(s.cfg.Pool.free) > 0 {
			batch := s.popBatch()
			if batch == nil {
				break
			}
			go func() {
				s.execute(batch)
				v.handoff <- struct{}{}
			}()
			<-v.handoff
			v.notify()
		}
		if len(v.events) == 0 {
			return
		}
		e := heap.Pop(&v.events).(*event)
		if e.at.After(v.now) {
			v.now = e.at
		}
		e.f()
		v.notify()
	}
}

// notify fires the watches of the jobs that are now terminal, in the
// order they were registered.
func (v *Virtual) notify() {
	for i := 0; i < len(v.watches); {
		w := v.watches[i]
		select {
		case <-w.j.Done():
			v.watches = append(v.watches[:i], v.watches[i+1:]...)
			w.f()
		default:
			i++
		}
	}
}

// event is one scheduled call; the queue orders events by (at, seq).
type event struct {
	v     *Virtual
	at    time.Time
	seq   uint64
	f     func()
	index int
}

// Stop removes the event from the queue.
func (e *event) Stop() bool {
	if e.index < 0 {
		return false
	}
	heap.Remove(&e.v.events, e.index)
	return true
}

// eventQueue is the loop's container/heap: events by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}
