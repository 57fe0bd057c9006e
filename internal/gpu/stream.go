package gpu

import "sync"

// This file is the stream/event execution engine under the ledger. The
// paper's implementation hides cost by pipelining: halo transfers overlap
// local SpMV inside the matrix powers kernel, and the CPU's small
// Hessenberg/Givens work overlaps device GEMMs. A schedule in which every
// round is a full synchronization cannot express that — its modeled time
// is the *sum* of phase maxima.
//
// The Timeline gives each simulated device two ordered streams (compute
// and transfer) plus one host stream, exactly the CUDA stream model the
// paper programs against. Every charge is an operation submitted to its
// streams: it starts no earlier than (a) the current cursor of each
// stream it occupies, (b) its explicit StreamEvent dependencies, and (c)
// for host-to-device rounds and host compute, the time the host last
// *received* data (hostData — a device-to-host round delivers its payload
// at its finish, and the host cannot forward or consume values that have
// not arrived). The modeled makespan is then the critical path through
// the dependency DAG (OverlappedTime), not the sum of barrier maxima
// (SerialTime).
//
// Two invariants hold in every mode:
//
//  1. The ledger (Stats) is charged identically. Overlap changes *when*
//     operations are scheduled, never *what* they cost, and the ledger is
//     the only place a charge is kept: the timeline holds cursors, no
//     tallies.
//
//  2. With overlap disabled (the default), every operation is a full
//     barrier: all cursors advance in lockstep and OverlappedTime() ==
//     SerialTime() bit for bit. The synchronous schedule is the
//     single-stream case of the engine.
//
// OverlappedTime() can never exceed SerialTime(): each operation starts at
// a maximum of cursors and event times that are themselves bounded by the
// serial accumulator, and float addition is monotone, so the bound holds
// exactly in floating point, not just in exact arithmetic.

// StreamEvent marks the completion time of a submitted operation on the
// timeline. The zero value is an event at time zero (no constraint).
// Events are values — they can be stored, passed across package
// boundaries and used as dependencies of any later operation.
type StreamEvent struct {
	at float64
}

// Join returns an event at the latest of the given events (a barrier on
// just that set).
func Join(evs ...StreamEvent) StreamEvent {
	var at float64
	for _, e := range evs {
		if e.at > at {
			at = e.at
		}
	}
	return StreamEvent{at: at}
}

// Timeline is the per-stream clock state of one context tree (a root
// context and all Survivors views derived from it share one timeline,
// just like they share one Stats ledger). All methods are safe for
// concurrent use, though charges are serialized by the orchestrating
// goroutine in practice.
type Timeline struct {
	mu       sync.Mutex
	overlap  bool
	compute  []float64 // per physical device compute-stream cursor
	transfer []float64 // per physical device transfer-stream cursor
	host     float64   // host compute-stream cursor
	hostData float64   // latest time the host received data (last D2H finish)
	serial   float64   // what the barrier schedule would have accumulated
}

// newTimeline returns a timeline at time zero for a context tree of
// devices physical devices: the cursors are sized once, and a Survivors
// view addresses them by physical id.
func newTimeline(overlap bool, devices int) *Timeline {
	cursors := make([]float64, 2*devices)
	return &Timeline{overlap: overlap, compute: cursors[:devices:devices], transfer: cursors[devices:]}
}

// latest returns the largest of m and the values of s.
func latest(m float64, s []float64) float64 {
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// maxAllLocked returns the latest cursor across every stream.
func (tl *Timeline) maxAllLocked() float64 {
	return latest(latest(max(tl.host, tl.hostData), tl.compute), tl.transfer)
}

// advanceAllLocked moves every cursor to t — a full barrier.
func (tl *Timeline) advanceAllLocked(t float64) {
	for i := range tl.compute {
		if tl.compute[i] < t {
			tl.compute[i] = t
		}
	}
	for i := range tl.transfer {
		if tl.transfer[i] < t {
			tl.transfer[i] = t
		}
	}
	if tl.host < t {
		tl.host = t
	}
	if tl.hostData < t {
		tl.hostData = t
	}
}

// kernel submits one parallel device-kernel launch: device devs[i] is
// busy for ts[i] on its compute stream. With overlap disabled the launch
// starts at the global maximum and drags every cursor to the slowest
// device's finish.
func (tl *Timeline) kernel(devs []int, ts []float64, after []StreamEvent) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	maxT := latest(0, ts)
	start := Join(after...).at
	var ev float64
	if !tl.overlap {
		ev = max(start, tl.maxAllLocked()) + maxT
		for _, d := range devs {
			tl.compute[d] = ev
		}
		tl.advanceAllLocked(ev)
	} else {
		for i, d := range devs {
			fin := max(start, tl.compute[d]) + ts[i]
			tl.compute[d] = fin
			ev = max(ev, fin)
		}
	}
	tl.serial += maxT
	return StreamEvent{at: ev}
}

// transferOp submits one transfer round of duration t (+stall of faulted
// retries) occupying the transfer streams of the participating devices.
// dir is the host's role in it: a device-to-host round delivers its
// payload to the host at its finish (advancing hostData); a
// host-to-device round cannot start before the host holds the data it
// relays (start >= hostData); a peer round keeps the host off the path —
// it neither waits for hostData nor advances it, the whole point of peer
// routing.
func (tl *Timeline) transferOp(dir direction, devs []int, t, stall float64, after []StreamEvent) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	dur := t + stall
	start := Join(after...).at
	if !tl.overlap {
		start = max(start, tl.maxAllLocked())
	} else {
		for _, d := range devs {
			start = max(start, tl.transfer[d])
		}
		if dir == dirH2D {
			start = max(start, tl.hostData)
		}
	}
	fin := start + dur
	for _, d := range devs {
		tl.transfer[d] = fin
	}
	if !tl.overlap {
		tl.advanceAllLocked(fin)
	} else if dir == dirD2H {
		tl.hostData = max(tl.hostData, fin)
	}
	tl.serial += dur
	return StreamEvent{at: fin}
}

// hostOp submits host compute of duration t on the host stream. The
// host cannot start work on data that has not arrived (start >=
// hostData).
func (tl *Timeline) hostOp(t float64, after []StreamEvent) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	start := Join(after...).at
	if !tl.overlap {
		start = max(start, tl.maxAllLocked())
	} else {
		start = max(start, tl.host, tl.hostData)
	}
	fin := start + t
	tl.host = fin
	if !tl.overlap {
		tl.advanceAllLocked(fin)
	}
	tl.serial += t
	return StreamEvent{at: fin}
}

func (tl *Timeline) horizon() float64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.maxAllLocked()
}

func (tl *Timeline) serialTime() float64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.serial
}

func (tl *Timeline) overlapEnabled() bool {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.overlap
}

// --- Context surface -------------------------------------------------------

// SetOverlap enables (true) or disables (false) overlapped scheduling on
// this context tree. With overlap off — the default — every operation is
// a full barrier and the engine runs the synchronous schedule. Set it on
// the root context before a run; Survivors views share the root's
// timeline.
func (c *Context) SetOverlap(on bool) {
	c.timeline.mu.Lock()
	c.timeline.overlap = on
	c.timeline.mu.Unlock()
}

// OverlapEnabled reports whether overlapped scheduling is on.
func (c *Context) OverlapEnabled() bool { return c.timeline.overlapEnabled() }

// OverlappedTime returns the modeled makespan of the executed schedule:
// the latest cursor over every stream (the critical path through the
// dependency DAG). With overlap disabled it equals SerialTime exactly.
func (c *Context) OverlappedTime() float64 { return c.timeline.horizon() }

// SerialTime returns the modeled time the fully synchronous (barrier)
// schedule would have taken for the same sequence of operations — the
// baseline the overlap speedup is measured against.
func (c *Context) SerialTime() float64 { return c.timeline.serialTime() }

// ComputeFence returns an event at the latest compute-stream cursor — a
// conservative dependency on "every device kernel submitted so far".
func (c *Context) ComputeFence() StreamEvent {
	tl := c.timeline
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return StreamEvent{at: latest(0, tl.compute)}
}

// HostFence returns an event at the host stream's cursor (including the
// last time data arrived from the devices) — a conservative dependency
// on "everything the host has computed or received so far".
func (c *Context) HostFence() StreamEvent {
	tl := c.timeline
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return StreamEvent{at: max(tl.host, tl.hostData)}
}
