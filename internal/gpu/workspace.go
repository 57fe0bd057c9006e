package gpu

import "sync"

// This file is the device memory of the simulated node. On the paper's
// machine the Krylov basis, the matrix powers kernel's extended vectors
// and the staging vector are allocated on each GPU once and stay
// resident; here a root context owns one arena — a float64 lane per
// physical device plus the host's — and a solve attempt lives in it:
// the attempt takes the arena as a Workspace, carves its vectors out of
// the lanes, and releases it when it returns. Retention is therefore
// bounded by contexts x largest attempt, whatever the number of problems
// solved on them.

// arena is the memory of a root context, shared with its Survivors views
// the way stats, faults and the timeline are. One holder at a time: mu
// guards the claim and the lanes' buffers, which change hands with it.
type arena struct {
	mu    sync.Mutex
	taken bool
	lanes []lane // one per physical device, then the host's
}

// lane is one device's memory: a bump allocator as large as the most any
// holder has asked of it.
type lane struct {
	buf  []float64
	used int // floats the current holder has asked for (may exceed len(buf))
}

func newArena(devices int) *arena { return &arena{lanes: make([]lane, devices+1)} }

// Workspace is one holder's claim on a context's memory, from
// TakeWorkspace to Release. Memory it hands out is valid until Release
// and must not be reachable from anything that outlives the holder. The
// zero Workspace draws from the heap.
type Workspace struct {
	arena *arena
	phys  []int // the taking view's logical -> physical device map
}

// TakeWorkspace claims the context's memory. While a claim is out — two
// goroutines sharing a context, an abandoned lease still running — a
// second taker gets a heap-backed workspace instead, so no two holders
// can ever alias. ResetStats and SetProfile leave the memory alone.
func (c *Context) TakeWorkspace() *Workspace {
	a := c.arena
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.taken {
		return &Workspace{}
	}
	a.taken = true
	return &Workspace{arena: a, phys: c.phys}
}

// Floats returns n zeroed float64s in the memory of logical device d of
// the taking context (HostDevice: the host's). A lane too small for the
// request serves it from the heap; Release then regrows the lane to what
// this holder asked of it in total.
func (w *Workspace) Floats(d, n int) []float64 {
	a := w.arena
	if a == nil {
		return make([]float64, n)
	}
	l := &a.lanes[len(a.lanes)-1]
	if d != HostDevice {
		l = &a.lanes[w.phys[d]]
	}
	// Only the holder touches a lane between TakeWorkspace and Release,
	// and those two order holders through the arena's mutex.
	off := l.used
	l.used += n
	if off+n > len(l.buf) {
		return make([]float64, n)
	}
	s := l.buf[off : off+n : off+n]
	clear(s)
	return s
}

// Release ends the claim: everything Floats returned is the next
// holder's to overwrite, and a lane this holder outgrew is replaced by
// one that would have held it. Releasing twice, or a heap-backed
// workspace, is a no-op.
func (w *Workspace) Release() {
	a := w.arena
	if a == nil {
		return
	}
	w.arena = nil
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.lanes {
		l := &a.lanes[i]
		if l.used > len(l.buf) {
			l.buf = make([]float64, l.used)
		}
		l.used = 0
	}
	a.taken = false
}

// WorkspaceBytes returns the bytes the context's memory holds: per lane,
// the most one released holder asked of it. Safe to call while a
// workspace is out.
func (c *Context) WorkspaceBytes() int {
	a := c.arena
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for i := range a.lanes {
		n += len(a.lanes[i].buf)
	}
	return n * ScalarBytes
}
