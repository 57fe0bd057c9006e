package gpu

import "sync"

// This file is the asynchronous stream/event execution engine on top of
// the synchronous ledger. The paper's implementation hides cost by
// pipelining: halo transfers overlap local SpMV inside the matrix powers
// kernel, and the CPU's small Hessenberg/Givens work overlaps device
// GEMMs. The barrier model of context.go cannot express that — every
// round is a full synchronization, so modeled time is the *sum* of phase
// maxima.
//
// The Timeline gives each simulated device two ordered streams (compute
// and transfer) plus one host stream, exactly the CUDA stream model the
// paper programs against. Every charging call becomes an operation
// submitted to its streams: it starts no earlier than (a) the current
// cursor of each stream it occupies, (b) its explicit StreamEvent
// dependencies, and (c) for host-to-device rounds and host compute, the
// time the host last *received* data (hostData — a device-to-host round
// delivers its payload at its finish, and the host cannot forward or
// consume values that have not arrived). The modeled makespan is then
// the critical path through the dependency DAG (Horizon), not the sum
// of barrier maxima (SerialTime).
//
// Two invariants make the engine safe to adopt incrementally:
//
//  1. The ledger (Stats) is charged identically in every mode. Overlap
//     changes *when* operations are scheduled, never *what* they cost,
//     so every existing golden table, CSV and property test is
//     untouched.
//
//  2. With overlap disabled (the default), every operation — including
//     the *On variants — degrades to a full barrier: all cursors advance
//     in lockstep and Horizon() == SerialTime() bit-for-bit. The
//     synchronous API is literally the single-stream case of the engine.
//
// Horizon() can never exceed SerialTime(): each operation starts at a
// maximum of cursors and event times that are themselves bounded by the
// serial accumulator, and float addition is monotone, so the bound holds
// exactly in floating point, not just in exact arithmetic.

// StreamEvent marks the completion time of a submitted operation on the
// timeline. The zero value is an event at time zero (no constraint).
// Events are values — they can be stored, passed across package
// boundaries and used as dependencies of any later operation.
type StreamEvent struct {
	at float64
}

// Seconds returns the event's completion time on the modeled clock.
func (e StreamEvent) Seconds() float64 { return e.at }

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

// LaneKind identifies one per-stream accounting lane of the timeline.
type LaneKind int

// Lanes: each device's compute stream and transfer stream, the host
// compute stream, and the shared bus lane fault retries are charged to.
const (
	LaneCompute LaneKind = iota
	LaneTransfer
	LaneHost
	LaneFault
)

type laneKey struct {
	kind   LaneKind
	device int
	phase  string
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
	lanes    map[laneKey]float64
}

func newTimeline(overlap bool) *Timeline {
	return &Timeline{overlap: overlap, lanes: make(map[laneKey]float64)}
}

func depMax(after []StreamEvent) float64 {
	var at float64
	for _, e := range after {
		if e.at > at {
			at = e.at
		}
	}
	return at
}

// cursorAt reads a per-device cursor, growing the slice on demand so
// Survivors views addressing sparse physical ids stay in bounds.
func cursorAt(s *[]float64, d int) float64 {
	for len(*s) <= d {
		*s = append(*s, 0)
	}
	return (*s)[d]
}

func setCursor(s *[]float64, d int, v float64) {
	for len(*s) <= d {
		*s = append(*s, 0)
	}
	(*s)[d] = v
}

// maxAllLocked returns the latest cursor across every stream.
func (tl *Timeline) maxAllLocked() float64 {
	m := tl.host
	if tl.hostData > m {
		m = tl.hostData
	}
	for _, v := range tl.compute {
		if v > m {
			m = v
		}
	}
	for _, v := range tl.transfer {
		if v > m {
			m = v
		}
	}
	return m
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
// busy for ts[i] on its compute stream. Barrier launches (the
// synchronous API, or any launch with overlap disabled) start at the
// global maximum and drag every cursor to the slowest device's finish.
func (tl *Timeline) kernel(phase string, devs []int, ts []float64, barrier bool, after []StreamEvent) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var maxT float64
	for _, t := range ts {
		if t > maxT {
			maxT = t
		}
	}
	start := depMax(after)
	var ev float64
	if barrier || !tl.overlap {
		if m := tl.maxAllLocked(); m > start {
			start = m
		}
		ev = start + maxT
		for _, d := range devs {
			setCursor(&tl.compute, d, ev)
		}
		tl.advanceAllLocked(ev)
	} else {
		for i, d := range devs {
			st := start
			if c := cursorAt(&tl.compute, d); c > st {
				st = c
			}
			fin := st + ts[i]
			setCursor(&tl.compute, d, fin)
			if fin > ev {
				ev = fin
			}
		}
	}
	for i, d := range devs {
		tl.lanes[laneKey{LaneCompute, d, phase}] += ts[i]
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
func (tl *Timeline) transferOp(phase string, dir direction, devs []int, t, stall float64, barrier bool, after []StreamEvent) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	dur := t + stall
	start := depMax(after)
	if barrier || !tl.overlap {
		if m := tl.maxAllLocked(); m > start {
			start = m
		}
	} else {
		for _, d := range devs {
			if c := cursorAt(&tl.transfer, d); c > start {
				start = c
			}
		}
		if dir == dirH2D && tl.hostData > start {
			start = tl.hostData
		}
	}
	fin := start + dur
	for _, d := range devs {
		setCursor(&tl.transfer, d, fin)
		tl.lanes[laneKey{LaneTransfer, d, phase}] += t
	}
	if barrier || !tl.overlap {
		tl.advanceAllLocked(fin)
	} else if dir == dirD2H && fin > tl.hostData {
		tl.hostData = fin
	}
	tl.serial += dur
	return StreamEvent{at: fin}
}

// hostOp submits host compute of duration t on the host stream. The
// host cannot start work on data that has not arrived (start >=
// hostData).
func (tl *Timeline) hostOp(phase string, t float64, barrier bool, after []StreamEvent) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	start := depMax(after)
	if barrier || !tl.overlap {
		if m := tl.maxAllLocked(); m > start {
			start = m
		}
	} else {
		if tl.host > start {
			start = tl.host
		}
		if tl.hostData > start {
			start = tl.hostData
		}
	}
	fin := start + t
	tl.host = fin
	if barrier || !tl.overlap {
		tl.advanceAllLocked(fin)
	}
	tl.lanes[laneKey{LaneHost, HostDevice, phase}] += t
	tl.serial += t
	return StreamEvent{at: fin}
}

// chargeFault records one faulted-transfer retry (wasted round + backoff)
// on the shared bus lane, mirroring the ledger's "fault" phase charge in
// the same order so the two reconcile exactly.
func (tl *Timeline) chargeFault(t float64) {
	tl.mu.Lock()
	tl.lanes[laneKey{LaneFault, HostDevice, PhaseFault}] += t
	tl.mu.Unlock()
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

func (tl *Timeline) lane(kind LaneKind, device int, phase string) float64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.lanes[laneKey{kind, device, phase}]
}

func (tl *Timeline) fence(kind LaneKind) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var m float64
	switch kind {
	case LaneCompute:
		for _, v := range tl.compute {
			if v > m {
				m = v
			}
		}
	case LaneTransfer:
		for _, v := range tl.transfer {
			if v > m {
				m = v
			}
		}
	case LaneHost:
		m = tl.host
		if tl.hostData > m {
			m = tl.hostData
		}
	}
	return StreamEvent{at: m}
}

// --- Context surface -------------------------------------------------------

// SetOverlap enables (true) or disables (false) overlapped scheduling on
// this context tree. With overlap off — the default — every operation,
// including the *On variants, is a full barrier and the engine reproduces
// the synchronous schedule exactly. Set it on the root context before a
// run; Survivors views share the root's timeline.
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

// LaneTime returns the accumulated busy time of one accounting lane:
// (LaneCompute, d, phase) is device d's kernel time in the phase and
// reconciles exactly with Stats.DevicePhase(d, phase).DeviceTime;
// (LaneTransfer, d, phase) reconciles with .CommTime; (LaneHost,
// HostDevice, phase) with Stats.Phase(phase).HostTime; and (LaneFault,
// HostDevice, PhaseFault) with the ledger's fault-phase CommTime.
func (c *Context) LaneTime(kind LaneKind, device int, phase string) float64 {
	return c.timeline.lane(kind, device, phase)
}

// ComputeFence returns an event at the latest compute-stream cursor — a
// conservative dependency on "every device kernel submitted so far".
func (c *Context) ComputeFence() StreamEvent { return c.timeline.fence(LaneCompute) }

// TransferFence returns an event at the latest transfer-stream cursor.
func (c *Context) TransferFence() StreamEvent { return c.timeline.fence(LaneTransfer) }

// HostFence returns an event at the host stream's cursor (including the
// last time data arrived from the devices) — a conservative dependency
// on "everything the host has computed or received so far".
func (c *Context) HostFence() StreamEvent { return c.timeline.fence(LaneHost) }

// ReduceRoundElemOn is ReduceRoundElem as a stream operation: the round
// occupies the participating transfer streams after its dependencies and
// delivers its payload to the host at the returned event. bytes already
// reflect the wire size at width elem, which tags the volume on the
// precision ledger columns (bytesFP32/bytesComp). Ledger charges are
// identical to ReduceRoundElem; with overlap disabled it is a full
// barrier. Gather is the form for equal shares.
func (c *Context) ReduceRoundElemOn(phase string, bytes []int, elem Elem, after ...StreamEvent) StreamEvent {
	return c.commRound(phase, dirD2H, bytes, elem, false, after)
}

// BroadcastRoundElemOn is the host-to-device counterpart. It starts no
// earlier than the host holds data to send (the last reduce's arrival);
// pass an explicit event when the payload comes from host *compute*.
// Broadcast is the form for equal shares.
func (c *Context) BroadcastRoundElemOn(phase string, bytes []int, elem Elem, after ...StreamEvent) StreamEvent {
	return c.commRound(phase, dirH2D, bytes, elem, false, after)
}

// DeviceKernelOn is DeviceKernel as a stream operation: each device's
// share runs on its own compute stream after the dependencies, and the
// returned event fires when the slowest device finishes.
func (c *Context) DeviceKernelOn(phase string, work []Work, after ...StreamEvent) StreamEvent {
	return c.deviceKernel(phase, work, false, after)
}

// HostComputeOn is HostCompute as a stream operation on the host stream.
func (c *Context) HostComputeOn(phase string, flops float64, after ...StreamEvent) StreamEvent {
	return c.hostCompute(phase, flops, false, after)
}
