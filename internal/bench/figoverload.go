package bench

import (
	"math"

	"cagmres/internal/cluster"
	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/obs"
)

// overloadRow is one arm of the overload-containment study: a fixed
// federation driven at a multiple of its capacity, with the containment
// layer (retry budget + deadline admission gate + shed-at-dequeue) on
// or off.
type overloadRow struct {
	Matrix string
	// Containment arms the retry budget and deadline gates; false is
	// the PR 8 router's behavior (hop cap only, clients retry).
	Containment bool
	// Load is offered load as a multiple of federation capacity.
	Load float64
	// ServiceSec is the modeled solve time one job costs — measured
	// from a real CA-GMRES solve, so the study is anchored to the
	// ledger, not to an invented constant.
	ServiceSec float64
	// Offered counts arrivals; Served those completed within deadline;
	// Late those completed after it (badput: capacity burned on answers
	// nobody is waiting for); Rejected arrivals no node admitted; Shed
	// jobs dropped at dequeue with their deadline already expired.
	Offered  int
	Served   int
	Late     int
	Rejected int
	Shed     int
	// Reroutes counts every admission attempt beyond each arrival's
	// first — the storm metric: without containment it multiplies with
	// load, with containment the budget bounds it.
	Reroutes int
	// BudgetExhausted counts forwards refused by the empty retry budget.
	BudgetExhausted int
	// GoodputPerSec is in-deadline completions per second over the run;
	// GoodputFrac normalizes by federation capacity (nodes/ServiceSec).
	GoodputPerSec float64
	GoodputFrac   float64
}

// The overload study's fixed shape. Three single-context nodes (the
// paper's node), a queue bounded like a small daemon's, deadlines six
// solves deep, and a rejection cost of 2% of a solve — the admission
// path is cheap but not free, which is exactly what makes retry storms
// metastable: rejected work still consumes capacity.
const (
	overNodes       = 3
	overQueueCap    = 8
	overDeadlineMul = 6.0
	overRejectFrac  = 0.02
	overRetries     = 2 // client retry rounds when containment is off
	overBudgetRatio = 0.1
	overBudgetBurst = 10
	overHorizonMul  = 100.0 // horizon in service times
)

// overLoads is the offered-load sweep, in multiples of capacity.
var overLoads = []float64{1, 2, 3, 4}

// overJob is one queued solve in the simulation.
type overJob struct {
	arrival  float64
	deadline float64
}

// overNode is one backend: a busy-until clock and a bounded FIFO queue.
// Service time is deterministic, so the whole simulation is exact
// arithmetic over the ledger-measured solve time — replays are
// bit-identical.
type overNode struct {
	busyUntil float64
	queue     []overJob
}

// advance processes the node's queue up to time t: jobs whose start
// falls at or before t are served (or, with containment on, shed at
// dequeue when their deadline already passed — the sched behavior).
// earn is called per completion (the router's budget Earn on 2xx).
func (n *overNode) advance(t, S float64, containment bool, earn func(), row *overloadRow, lastFinish *float64) {
	for len(n.queue) > 0 {
		j := n.queue[0]
		start := n.busyUntil
		if start < j.arrival {
			start = j.arrival
		}
		if start > t {
			return
		}
		if containment && start+S > j.deadline {
			// The sched's dequeue gate: remaining deadline budget can no
			// longer cover a modeled solve, so the job is shed without
			// spending service time on an answer nobody will wait for.
			n.queue = n.queue[1:]
			row.Shed++
			continue
		}
		finish := start + S
		n.busyUntil = finish
		n.queue = n.queue[1:]
		if finish <= j.deadline {
			row.Served++
		} else {
			row.Late++
		}
		earn()
		if finish > *lastFinish {
			*lastFinish = finish
		}
	}
}

// overloadArm simulates one (load, containment) cell.
func overloadArm(matrix string, S, load float64, containment bool) overloadRow {
	row := overloadRow{Matrix: matrix, Containment: containment, Load: load, ServiceSec: S}
	D := overDeadlineMul * S
	o := overRejectFrac * S
	rate := load * float64(overNodes) / S
	horizon := overHorizonMul * S
	arrivals := int(horizon * rate)

	nodes := make([]*overNode, overNodes)
	for i := range nodes {
		nodes[i] = &overNode{}
	}
	var budget *cluster.RetryBudget
	earn := func() {}
	if containment {
		budget = cluster.NewRetryBudget(overBudgetRatio, overBudgetBurst, obs.NewRegistry())
		earn = budget.Earn
	}

	lastFinish := 0.0
	for i := 0; i < arrivals; i++ {
		t := float64(i) / rate
		for _, n := range nodes {
			n.advance(t, S, containment, earn, &row, &lastFinish)
		}
		row.Offered++
		rounds := 1
		if !containment {
			// Without containment clients retry rejected solves
			// immediately — each round re-offers the job to every
			// candidate, multiplying the load.
			rounds = 1 + overRetries
		}
		admitted := false
		attempts := 0
	attemptLoop:
		for round := 0; round < rounds && !admitted; round++ {
			for hop := 0; hop < overNodes; hop++ {
				if attempts > 0 && containment {
					// Forwarding past the first attempt draws from the
					// retry budget; empty bucket means a structured
					// rejection, never a storm.
					if !budget.Take() {
						row.BudgetExhausted++
						break attemptLoop
					}
				}
				attempts++
				n := nodes[(i+hop)%overNodes]
				ok := len(n.queue) < overQueueCap
				if ok && containment {
					// Deadline-infeasibility gate: remaining budget must
					// cover the queue ahead plus one solve.
					wait := n.busyUntil - t
					if wait < 0 {
						wait = 0
					}
					wait += float64(len(n.queue)) * S
					if wait+S > D {
						ok = false
					}
				}
				if ok {
					n.queue = append(n.queue, overJob{arrival: t, deadline: t + D})
					admitted = true
					break
				}
				// A rejection is cheap but not free: the node spends a
				// slice of its capacity saying no.
				if n.busyUntil < t {
					n.busyUntil = t
				}
				n.busyUntil += o
			}
		}
		if !admitted {
			row.Rejected++
		}
		if attempts > 0 {
			row.Reroutes += attempts - 1
		}
	}
	// Drain the backlog.
	for _, n := range nodes {
		n.advance(math.Inf(1), S, containment, earn, &row, &lastFinish)
	}
	elapsed := horizon
	if lastFinish > elapsed {
		elapsed = lastFinish
	}
	row.GoodputPerSec = float64(row.Served) / elapsed
	row.GoodputFrac = row.GoodputPerSec * S / float64(overNodes)
	return row
}

// figOverload is the overload-containment study: a three-node
// federation driven at 1–4× capacity, with the containment layer off
// (the retry-storm baseline: bounded only by the hop cap, rejected
// clients retry immediately) and on (retry budget, deadline admission
// gate, shed-at-dequeue). The service time is measured from a real
// CA-GMRES solve on the G3_circuit configuration, and the simulation is
// exact arithmetic above it, so every cell replays bit-identically.
// Containment off shows the cliff: past saturation, rejected attempts
// multiply (reroutes grow superlinearly with load) and the capacity
// burned on rejection handling plus deadline-blown service crushes
// goodput. Containment on holds goodput near capacity at 4× offered
// load — the property the acceptance gate asserts.
func figOverload(cfg Config) []overloadRow {
	cfg.defaults()
	mtx := benchG3(cfg.Scale)
	b := onesRHS(mtx.A.Rows)
	ctx := cfg.newContext(overNodes, gpu.M2090())
	p, err := core.NewProblem(ctx, mtx.A, b, core.KWay, true)
	if err != nil {
		panic(err)
	}
	if _, err := core.CAGMRES(p, core.Options{M: 30, S: 10, Tol: 1e-4,
		MaxRestarts: cfg.MaxRestarts, Ortho: "CholQR", Precision: cfg.Precision}); err != nil {
		panic(err)
	}
	S := ctx.Stats().TotalTime()

	cfg.printf("Overload study: %d nodes, queue %d, deadline %.0fx solve, CA-GMRES on %s (S=%.3f ms modeled)\n",
		overNodes, overQueueCap, overDeadlineMul, mtx.Name, ms(S))
	cfg.printf("%-11s %4s %8s %7s %6s %8s %6s %9s %7s %8s\n",
		"containment", "load", "offered", "served", "late", "rejected", "shed", "reroutes", "budget", "goodput")

	var out []overloadRow
	for _, containment := range []bool{false, true} {
		for _, load := range overLoads {
			row := overloadArm("G3_circuit", S, load, containment)
			out = append(out, row)
			mode := "off"
			if containment {
				mode = "on"
			}
			cfg.printf("%-11s %4.0fx %8d %7d %6d %8d %6d %9d %7d %7.1f%%\n",
				mode, row.Load, row.Offered, row.Served, row.Late, row.Rejected,
				row.Shed, row.Reroutes, row.BudgetExhausted, 100*row.GoodputFrac)
		}
	}
	return out
}
