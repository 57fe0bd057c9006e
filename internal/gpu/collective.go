package gpu

import "slices"

// This file is the paper's host-staged reduce protocol, written once.
// Every orthogonalization kernel of its Section V — and every distributed
// BLAS-1/2 operation of the solvers — is the same three moves: a kernel on
// every device, one device-to-host round of equal-sized partials that the
// CPU sums, one host-to-device round back (Figure 10 counts them). The
// layers above say what runs on a device and how many elements travel;
// launching, the byte vectors, the per-device partials, the charge order
// (kernel, then round, then host sum) and the order of the sum live here.
//
// All four collectives are stream operations: they wait for the given
// events, and with overlap disabled each one is a full barrier.

// collectiveScratch is the working memory of the collectives and of the
// kernel charge: grow-only, owned by one Context value (a Survivors view
// has its own) under the contract charging already has — one orchestrating
// goroutine per context. The ledger, the trace ring and the timeline copy
// numbers out of what they are handed and keep no slice, so the next call
// may overwrite it.
//
// The device bodies of Launch and AllReduce are built once, on the first
// call, and read the caller's function from kernel and partial, which
// hold it only for the length of the fork: a collective wraps nothing
// per call.
type collectiveScratch struct {
	work  []Work      // one launch's cost shapes
	times []float64   // and its modeled kernel times
	bytes []int       // one round's uniform byte vector
	links []int       // a peer round's directed link loads, both directions
	parts [][]float64 // per device, grown to the widest reduction so far

	kernel     func(d int) Work                 // Launch's f, during its fork
	partial    func(d int, part []float64) Work // AllReduce's f, during its fork
	launchBody func(d int)                      // work[d] = kernel(d)
	reduceBody func(d int) Work                 // partial(d, parts[d]) on a cleared part
}

// sized sets *s to length n — in its own memory when that is large enough
// (what it held is then still there), in new memory grown the way append
// grows when it is not — and returns it.
func sized[T any](s *[]T, n int) []T {
	*s = slices.Grow((*s)[:0], n)[:n]
	return *s
}

// Launch runs f(d) on every device (RunAll) and charges what each call
// returns as one parallel kernel: device d's share is f(d), the launch
// waits for the after events, and the returned event fires when the
// slowest device finishes.
func (c *Context) Launch(phase string, f func(d int) Work, after ...StreamEvent) StreamEvent {
	c.run.claim()
	return c.launch(phase, f, after)
}

// launch is Launch under a claimed fork guard.
func (c *Context) launch(phase string, f func(d int) Work, after []StreamEvent) StreamEvent {
	sc := &c.scratch
	work := sized(&sc.work, c.NumDevices)
	if sc.launchBody == nil {
		sc.launchBody = func(d int) { sc.work[d] = sc.kernel(d) }
	}
	sc.kernel = f
	defer func() { sc.kernel = nil }()
	c.run.fork(c.NumDevices, sc.launchBody)
	return c.DeviceKernelOn(phase, work, after...)
}

// Gather charges one device-to-host round in which every device sends n
// elements of width elem; the payload is on the host at the returned event.
func (c *Context) Gather(phase string, n int, elem Elem, after ...StreamEvent) StreamEvent {
	return c.commRound(phase, dirD2H, c.uniformBytes(n*elem.Bytes()), elem, after)
}

// Broadcast charges one host-to-device round in which every device receives
// n elements of width elem. It starts no earlier than the host holds data
// to send (the last gather's arrival); pass an explicit event when the
// payload comes from host compute.
func (c *Context) Broadcast(phase string, n int, elem Elem, after ...StreamEvent) StreamEvent {
	return c.commRound(phase, dirH2D, c.uniformBytes(n*elem.Bytes()), elem, after)
}

func (c *Context) uniformBytes(b int) []int {
	bytes := sized(&c.scratch.bytes, c.NumDevices)
	for d := range bytes {
		bytes[d] = b
	}
	return bytes
}

// AllReduce is the global reduction: f(d, part) runs on every device and
// leaves device d's contribution in part — len(out) values, zero when f
// gets them, whatever an earlier or a panicked call left behind — one
// gather of len(out) elements of width elem waits for that kernel, and the
// host sums the partials into out in device order starting from zero, so a
// result does not depend on which device finished first. A width narrower
// than FP64 rounds the sum to float32, the granularity it travelled at.
// The returned event is the gather's: out is on the host from then on.
func (c *Context) AllReduce(phase string, out []float64, elem Elem, f func(d int, part []float64) Work, after ...StreamEvent) StreamEvent {
	c.run.claim()
	sc := &c.scratch
	n := len(out)
	parts := sized(&sc.parts, c.NumDevices)
	for d := range parts {
		sized(&parts[d], n)
	}
	if sc.reduceBody == nil {
		sc.reduceBody = func(d int) Work {
			part := sc.parts[d]
			clear(part)
			return sc.partial(d, part)
		}
	}
	sc.partial = f
	defer func() { sc.partial = nil }()
	k := c.launch(phase, sc.reduceBody, after)
	ev := c.Gather(phase, n, elem, k)
	clear(out)
	for _, part := range parts {
		for i, v := range part {
			out[i] += v
		}
	}
	if elem != Elem64 {
		for i, v := range out {
			out[i] = float64(float32(v))
		}
	}
	return ev
}
