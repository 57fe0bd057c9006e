package sched

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cagmres/internal/clock"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
)

// closedLoop runs a closed loop on v: each client submits its first
// request at time zero and each next one gap after the previous
// response. Client c's request i solves right-hand side c*requests+i of
// one shared matrix. Returns every client's jobs in submission order.
func closedLoop(t *testing.T, v *Virtual, s *Scheduler, clients, requests int, gap time.Duration) [][]*Job {
	t.Helper()
	a := testMatrix()
	jobs := make([][]*Job, clients)
	var submit func(c int)
	submit = func(c int) {
		i := len(jobs[c])
		j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, c*requests+i), "lap6"), 0, 0)
		if err != nil {
			t.Fatalf("client %d request %d: %v", c, i, err)
		}
		jobs[c] = append(jobs[c], j)
		v.WhenDone(j, func() {
			if len(jobs[c]) < requests {
				v.AfterFunc(gap, func() { submit(c) })
			}
		})
	}
	for c := range clients {
		v.AfterFunc(0, func() { submit(c) })
	}
	v.Run(s)
	return jobs
}

// ledger is the attempt duration the virtual clock charges a finished
// job: its ledger seconds, rounded once to the nanosecond.
func ledger(t *testing.T, j *Job) time.Duration {
	t.Helper()
	res, err := j.Result()
	if err != nil || res == nil || res.Stats == nil {
		t.Fatalf("job %s: result %+v, err %v", j.ID, res, err)
	}
	return time.Duration(math.Round(res.Stats.TotalTime() * 1e9))
}

type stamps struct{ submit, start, finish time.Duration }

func stampsOf(j *Job) stamps {
	j.mu.Lock()
	defer j.mu.Unlock()
	epoch := time.Unix(0, 0)
	return stamps{j.submitted.Sub(epoch), j.started.Sub(epoch), j.finished.Sub(epoch)}
}

// TestVirtualClosedLoopPinned runs the real scheduler on the virtual
// clock — 1 context, 2 closed-loop clients, 2 requests each — and pins
// every (submit, start, finish) by hand from the jobs' ledger seconds.
func TestVirtualClosedLoopPinned(t *testing.T) {
	v := NewVirtual()
	s := New(Config{Pool: NewPool(PoolConfig{Size: 1, Devices: 2}), Clock: v})
	const gap = 100 * time.Microsecond
	jobs := closedLoop(t, v, s, 2, 2, gap)

	// Both first requests arrive at 0: client 0's takes the idle context
	// the instant it is queued, client 1's waits for it. Each next request
	// arrives while the other client's runs, so every job has a lease of
	// its own and starts when the previous one finishes.
	c0r0, c1r0, c0r1, c1r1 := jobs[0][0], jobs[1][0], jobs[0][1], jobs[1][1]
	d0, d1, d2, d3 := ledger(t, c0r0), ledger(t, c1r0), ledger(t, c0r1), ledger(t, c1r1)
	if gap >= d1 || gap >= d2 {
		t.Fatalf("gap %v does not fall inside the solves %v, %v the schedule below assumes", gap, d1, d2)
	}
	want := map[*Job]stamps{
		c0r0: {0, 0, d0},
		c1r0: {0, d0, d0 + d1},
		c0r1: {d0 + gap, d0 + d1, d0 + d1 + d2},
		c1r1: {d0 + d1 + gap, d0 + d1 + d2, d0 + d1 + d2 + d3},
	}
	for j, w := range want {
		if got := stampsOf(j); got != w {
			t.Errorf("%s: (submit, start, finish) = %v, want %v", j.ID, got, w)
		}
		if j.State() != StateDone {
			t.Errorf("%s: state %s, want done", j.ID, j.State())
		}
	}
	if got, wantNow := v.Now().Sub(time.Unix(0, 0)), d0+d1+d2+d3; got != wantNow {
		t.Errorf("run ends at %v, want the last finish %v", got, wantNow)
	}
	if snap := s.Snapshot(); snap.Leases != 4 || snap.Batched != 0 {
		t.Errorf("leases %d, batched %d; want 4 leases of one job each", snap.Leases, snap.Batched)
	}
	// The scheduler's own SLO engine judged all four on the same clock.
	rep := s.SLO().Report()
	n := 0
	for _, c := range rep.Classes {
		n += c.Requests
	}
	if n != 4 {
		t.Errorf("SLO engine judged %d requests, want 4", n)
	}
}

// TestVirtualBatchedRunInvariants drives a batched closed loop on two
// contexts and checks the engine's invariants: every job terminal
// exactly once, every attempt as long as its ledger seconds, and never
// more attempts in flight than the pool has contexts.
func TestVirtualBatchedRunInvariants(t *testing.T) {
	reg := obs.NewRegistry()
	v := NewVirtual()
	pool := NewPool(PoolConfig{Size: 2, Devices: 2})
	s := New(Config{Pool: pool, MaxBatch: 4, Registry: reg, Clock: v})
	const clients, requests = 6, 3
	jobs := closedLoop(t, v, s, clients, requests, 50*time.Microsecond)

	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, cj := range jobs {
		if len(cj) != requests {
			t.Fatalf("a client issued %d requests, want %d", len(cj), requests)
		}
		for _, j := range cj {
			if j.State() != StateDone || j.Attempts() != 1 {
				t.Errorf("%s: state %s after %d attempts, want done after 1", j.ID, j.State(), j.Attempts())
			}
			st := stampsOf(j)
			if got, want := st.finish-st.start, ledger(t, j); got != want {
				t.Errorf("%s: attempt lasted %v, want its ledger's %v", j.ID, got, want)
			}
			edges = append(edges, edge{st.start, 1}, edge{st.finish, -1})
		}
	}
	// A finish and a start at one instant are a hand-over, not overlap.
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].at != edges[k].at {
			return edges[i].at < edges[k].at
		}
		return edges[i].delta < edges[k].delta
	})
	inFlight, peak := 0, 0
	for _, e := range edges {
		inFlight += e.delta
		peak = max(peak, inFlight)
	}
	if peak > pool.Size() {
		t.Errorf("%d attempts in flight at once on %d contexts", peak, pool.Size())
	}
	if peak < pool.Size() {
		t.Errorf("peak concurrency %d: the run never used both contexts", peak)
	}
	// Terminal exactly once: one tally per job and one SLO judgement.
	body := promBody(t, reg)
	if want := `sched_jobs_total{state="done"} 18`; !strings.Contains(body, want) {
		t.Errorf("metrics lack %s", want)
	}
	if snap := s.Snapshot(); snap.Batched == 0 || snap.Dispatched != clients*requests {
		t.Errorf("dispatched %d (batched %d), want %d with some batching", snap.Dispatched, snap.Batched, clients*requests)
	}
	n := 0
	for _, c := range s.SLO().Report().Classes {
		n += c.Requests
	}
	if n != clients*requests {
		t.Errorf("SLO engine judged %d requests, want %d", n, clients*requests)
	}
}

// TestBatchMatesStampTheirOwnAttempt: four same-key jobs share one lease
// on one context. Each job's start is its own attempt's, so mate k waits
// exactly the earlier mates' attempt seconds, its service is its own
// attempt, and the deadline gate's estimate and the service histogram
// are built from those attempts.
func TestBatchMatesStampTheirOwnAttempt(t *testing.T) {
	reg := obs.NewRegistry()
	v := NewVirtual()
	s := New(Config{Pool: NewPool(PoolConfig{Size: 1, Devices: 2}), MaxBatch: 4, Registry: reg, Clock: v})
	a := testMatrix()
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, i), "lap6"), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	v.Run(s)
	if snap := s.Snapshot(); snap.Leases != 1 {
		t.Fatalf("%d leases, want the 4 mates on 1", snap.Leases)
	}
	var before time.Duration
	ewma, sum := 0.0, 0.0
	for k, j := range jobs {
		d := ledger(t, j)
		if got := j.WaitSeconds(); got != before.Seconds() {
			t.Errorf("mate %d waited %v s, want the earlier mates' %v s", k, got, before.Seconds())
		}
		if got := j.ServiceSeconds(); got != d.Seconds() {
			t.Errorf("mate %d served %v s, want its attempt's %v s", k, got, d.Seconds())
		}
		before += d
		if ewma == 0 {
			ewma = d.Seconds()
		} else {
			ewma += svcEWMAAlpha * (d.Seconds() - ewma)
		}
		sum += d.Seconds()
	}
	if got := s.serviceEstimate(); got != ewma {
		t.Errorf("service estimate %v, want %v from the attempts", got, ewma)
	}
	if got := s.met.serviceWall.Sum(); got != sum {
		t.Errorf("service histogram sums %v s, want the attempts' %v s", got, sum)
	}
}

// manualClock is a Clock whose time moves only when a test fires its
// next timer or advances it; attempts cost nothing on it.
type manualClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	pending []*manualTimer
}

type manualTimer struct {
	c  *manualClock
	at time.Time
	f  func()
}

func newManualClock() *manualClock {
	c := &manualClock{now: time.Unix(0, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{c: c, at: c.now.Add(d), f: f}
	c.pending = append(c.pending, t)
	c.cond.Broadcast()
	return t
}

func (c *manualClock) Attempt(time.Time, float64) {}

// advance moves the clock forward by d without firing a timer.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (t *manualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	i := slices.Index(t.c.pending, t)
	if i >= 0 {
		t.c.pending = slices.Delete(t.c.pending, i, i+1)
	}
	return i >= 0
}

// fire waits until a timer is pending, moves the clock to the earliest
// one's instant and calls it.
func (c *manualClock) fire() {
	c.mu.Lock()
	for len(c.pending) == 0 {
		c.cond.Wait()
	}
	next := slices.MinFunc(c.pending, func(a, b *manualTimer) int { return a.at.Compare(b.at) })
	c.pending = slices.DeleteFunc(c.pending, func(t *manualTimer) bool { return t == next })
	if next.at.After(c.now) {
		c.now = next.at
	}
	c.mu.Unlock()
	next.f()
}
