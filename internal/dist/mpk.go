package dist

import (
	"fmt"
	"math/cmplx"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// MPK is the matrix powers kernel over a distributed matrix: one halo
// exchange, then s communication-free local SpMV steps per device. A
// window is two device forks: the first packs every device's send set
// into the host staging vector, then the exchange is charged; the second
// is one device program that picks up its halo and runs all s steps back
// to back, so a device's extended matrix stays in cache across the
// window. The steps' costs are recorded during that fork and charged
// after it in step order — the s dependent launches the model times — so
// when the host runs a device's work never changes what the ledger, the
// stream timeline or a death check sees.
type MPK struct {
	M *Matrix
	// storage is the element width of the basis vectors the powers
	// recurrence produces: every generated column (and the halo-extended
	// work vectors feeding the next step) is rounded to this width, and
	// the step kernels are charged at it. transfer is the wire width of
	// the halo payloads — at most as wide as storage, possibly narrower
	// (bf16-compressed halos on fabrics that support them). Both default
	// to Elem64, which replays the historical kernel bit for bit; they
	// only apply to Generate — SpMV stays full double precision because
	// it carries the true-residual and shift-harvest paths.
	storage  gpu.Elem
	transfer gpu.Elem
	// transferTraffic caches the peer traffic matrix rescaled to the
	// transfer width (entries of PeerTraffic are whole fp64 elements, so
	// the division is exact).
	transferTraffic [][]int
	// w is the double-buffered host staging area for the gather / expand /
	// scatter of the setup phase (the full vector of the paper's
	// pseudocode). Two buffers alternate between consecutive exchanges so
	// that, under overlapped scheduling, packing the next window's
	// boundary values never has to wait for the previous window's
	// broadcast to drain the staging area — the write-after-read hazard a
	// single buffer would impose.
	w    [2][]float64
	wIdx int
	// z[d] holds device d's rotating extended vectors. Three buffers are
	// kept (not the paper's two) because the real-arithmetic Newton
	// recurrence for a complex conjugate shift pair needs the vector from
	// two steps back:
	//
	//	v_{k+1} = (A - Re(t) I) v_k
	//	v_{k+2} = (A - Re(t) I) v_{k+1} + Im(t)^2 v_k
	z [][3][]float64
	// steps[i][d] is device d's cost shape of step i+1 of the window being
	// generated (steps[0] also serves SpMV), filled by the device fork and
	// charged after it; interior and boundary are the split first step.
	// The ledger copies what it keeps of them.
	steps                [][]gpu.Work
	interior, boundary   []gpu.Work
	sendBytes, recvBytes []int
	// bhat is the change-of-basis matrix Generate returns, over
	// (S+1) x S floats of host memory taken with the kernel.
	bhat    la.Dense
	bhatBuf []float64
	// call holds the arguments of the fork in flight, which the device
	// bodies read; the bodies are built once, by NewMPKIn, so a window or
	// an SpMV wraps nothing per call.
	call                        mpkCall
	packBody, spmvBody, powBody func(d int)
}

// mpkCall is what one of MPK's device forks reads besides the kernel.
type mpkCall struct {
	v      *Vectors     // exchange: the source; SpMV: the destination; Generate: the basis
	j      int          // exchange: the column shipped; SpMV: the destination; Generate: j0
	steps  int          // Generate's window length
	shifts []complex128 // Generate's Newton shifts, nil for monomial
	// The exchange's staging vector, wire width and depth, which pickup
	// reads too.
	w      []float64
	elem   gpu.Elem
	depth1 bool
}

// SetPrecision selects the storage width of generated basis columns and
// the wire width of Generate's halo exchange. Elem64/Elem64 restores the
// historical full-precision kernel.
func (k *MPK) SetPrecision(storage, transfer gpu.Elem) {
	if !storage.Valid() || !transfer.Valid() {
		panic(fmt.Sprintf("dist: MPK precision %v/%v invalid", storage, transfer))
	}
	k.storage, k.transfer = storage, transfer
	k.transferTraffic = scaleTraffic(k.M.PeerTraffic, transfer)
}

// scaleTraffic rescales a peer byte matrix from fp64 elements to the
// given wire width.
func scaleTraffic(traffic [][]int, elem gpu.Elem) [][]int {
	if elem == gpu.Elem64 || traffic == nil {
		return traffic
	}
	out := make([][]int, len(traffic))
	for s, row := range traffic {
		out[s] = make([]int, len(row))
		for d, b := range row {
			out[s][d] = b / gpu.ScalarBytes * elem.Bytes()
		}
	}
	return out
}

// roundElem narrows x in place to the given element width; Elem64 is a
// no-op.
func roundElem(x []float64, e gpu.Elem) {
	switch e {
	case gpu.Elem32:
		la.RoundF32(x)
	case gpu.ElemBF16:
		la.RoundBF16(x)
	}
}

// NewMPK allocates the kernel's buffers for a distributed matrix on the
// heap: the caller keeps the kernel as long as it likes.
func NewMPK(m *Matrix) *MPK { return NewMPKIn(&heap, m) }

// NewMPKIn builds the kernel's buffers in ws — the staging vectors and
// B̂ in the host's memory, each device's extended vectors in its own — so
// the kernel is valid until ws is released.
func NewMPKIn(ws *gpu.Workspace, m *Matrix) *MPK {
	ng := len(m.Dev)
	work, bytes := make([]gpu.Work, (m.S+2)*ng), make([]int, 2*ng)
	k := &MPK{M: m, transferTraffic: m.PeerTraffic, z: make([][3][]float64, ng),
		steps:    make([][]gpu.Work, m.S),
		interior: work[:ng:ng], boundary: work[ng : 2*ng : 2*ng],
		sendBytes: bytes[:ng:ng], recvBytes: bytes[ng:]}
	for i := range k.steps {
		k.steps[i] = work[(i+2)*ng : (i+3)*ng : (i+3)*ng]
	}
	k.packBody, k.spmvBody, k.powBody = k.pack, k.spmvDev, k.powers
	for i := range k.w {
		k.w[i] = ws.Floats(gpu.HostDevice, m.Layout.N)
	}
	k.bhatBuf = ws.Floats(gpu.HostDevice, (m.S+1)*m.S)
	for d, dm := range m.Dev {
		for i := range k.z[d] {
			k.z[d][i] = ws.Floats(d, dm.NOwn+len(dm.Halo))
		}
	}
	return k
}

// Generate runs the matrix powers kernel: starting from column j0 of v,
// it produces columns j0+1 .. j0+steps and returns the (steps+1) x steps
// change-of-basis matrix B such that A*V[:, j0:j0+steps] =
// V[:, j0:j0+steps+1] * B. shifts selects the basis: nil for the monomial
// basis (B is the down-shift matrix), or exactly `steps` Leja-ordered
// Newton shifts where every complex shift is immediately followed by its
// conjugate. All communication and compute is charged to the given phase.
// B lives in the kernel: it stays valid until the next Generate.
func (k *MPK) Generate(v *Vectors, j0, steps int, shifts []complex128, phase string) *la.Dense {
	m := k.M
	if steps < 1 || steps > m.S {
		panic(fmt.Sprintf("dist: MPK steps=%d outside 1..%d", steps, m.S))
	}
	if shifts != nil && len(shifts) != steps {
		panic(fmt.Sprintf("dist: MPK got %d shifts for %d steps", len(shifts), steps))
	}
	if j0+steps >= v.Cols {
		panic(fmt.Sprintf("dist: MPK needs %d columns, vector has %d", j0+steps+1, v.Cols))
	}
	validateShiftPairs(shifts)

	// --- Setup: halo exchange of column j0 (Figure 4's setup phase). ---
	halo := k.exchange(v, j0, phase, k.transfer, k.transferTraffic, false)

	// --- Matrix powers: s communication-free steps, one device program. ---
	// The exchange left v, j0 and its staging vector in call.
	k.call.steps, k.call.shifts = steps, shifts
	m.Ctx.RunAll(k.powBody)

	// Charge the steps in order. Under overlapped scheduling with more
	// than one device, the first step is split into an interior launch
	// (owned rows touching only owned columns — independent of the halo,
	// so it runs concurrently with the exchange) and a boundary launch
	// that waits for the halo; the split only changes the charge, not the
	// kernel. Later steps read the previous step's output on the same
	// compute stream; stream ordering is the dependency.
	split := m.Ctx.OverlapEnabled() && len(m.Dev) > 1
	bhat := &k.bhat
	*bhat = la.Dense{Rows: steps + 1, Cols: steps, Stride: steps + 1, Data: k.bhatBuf[:(steps+1)*steps]}
	bhat.Zero()
	for step := 1; step <= steps; step++ {
		work := k.steps[step-1]
		switch {
		case step == 1 && split:
			k.splitFirstStep(work, halo, phase, k.storage)
		case step == 1:
			m.Ctx.DeviceKernelOn(phase, work, halo)
		default:
			m.Ctx.DeviceKernelOn(phase, work)
		}

		// Change-of-basis column.
		col := step - 1
		if shifts == nil {
			bhat.Set(step, col, 1)
		} else {
			sh := shifts[col]
			bhat.Set(col, col, real(sh))
			bhat.Set(step, col, 1)
			if imag(sh) < 0 && col >= 1 {
				bhat.Set(col-1, col, -imag(sh)*imag(sh))
			}
		}
	}
	return bhat
}

// powers is Generate's device program on device d: pick up the halo,
// then run the window's steps back to back, recording each step's cost.
func (k *MPK) powers(d int) {
	v, j0, steps, shifts := k.call.v, k.call.j, k.call.steps, k.call.shifts
	k.pickup(d)
	dm := k.M.Dev[d]
	z := &k.z[d]
	vb := float64(k.storage.Bytes())
	for step := 1; step <= steps; step++ {
		t := steps - step // multiply rows with distance <= t
		rows := dm.RowsAtDist[t]
		zPrev, zCur := z[(step-1)%3], z[step%3]
		dm.Ext.MulVecPrefix(zCur[:rows], zPrev, rows)
		nnz := dm.NNZPrefix[t]
		flops := 2 * float64(nnz)
		bytes := float64(nnz)*(4+vb) + float64(rows)*2*vb
		if shifts != nil {
			sh := shifts[step-1]
			if reShift := real(sh); reShift != 0 {
				for i := 0; i < rows; i++ {
					zCur[i] -= reShift * zPrev[i]
				}
				flops += 2 * float64(rows)
			}
			if imag(sh) < 0 {
				// Second member of a conjugate pair: add Im^2 times
				// the vector from two steps back.
				b2 := imag(sh) * imag(sh)
				zP2 := z[(step+1)%3]
				for i := 0; i < rows; i++ {
					zCur[i] += b2 * zP2[i]
				}
				flops += 2 * float64(rows)
				bytes += float64(rows) * vb
			}
		}
		// Narrow the step's output to the storage width before it is
		// published or consumed by the next step: the stored column
		// and the recurrence see exactly what a narrow device buffer
		// would hold.
		roundElem(zCur[:rows], k.storage)
		copy(v.Local[d].Col(j0+step), zCur[:dm.NOwn])
		k.steps[step-1][d] = gpu.Work{Flops: flops, Bytes: bytes, Elem: k.storage}
	}
}

// splitFirstStep charges the first MPK step as two launches per device:
// an interior kernel that depends only on previously computed columns
// (it overlaps the halo exchange) and a boundary kernel carrying the
// remaining rows (and any shift work) that waits for the halo event.
// work holds the full per-device step cost computed by the caller.
func (k *MPK) splitFirstStep(work []gpu.Work, halo gpu.StreamEvent, phase string, elem gpu.Elem) {
	m := k.M
	interior, boundary := k.interior, k.boundary
	vb := float64(elem.Bytes())
	for d := range work {
		dm := m.Dev[d]
		iw := gpu.Work{
			Flops: 2 * float64(dm.InteriorNNZ),
			Bytes: float64(dm.InteriorNNZ)*(4+vb) + float64(dm.InteriorRows)*2*vb,
			Elem:  elem,
		}
		if iw.Flops > work[d].Flops {
			iw.Flops = work[d].Flops
		}
		if iw.Bytes > work[d].Bytes {
			iw.Bytes = work[d].Bytes
		}
		interior[d] = iw
		boundary[d] = gpu.Work{Flops: work[d].Flops - iw.Flops, Bytes: work[d].Bytes - iw.Bytes, Elem: elem}
	}
	m.Ctx.DeviceKernelOn(phase, interior)
	m.Ctx.DeviceKernelOn(phase, boundary, halo)
}

// exchange ships column j of v to every device that needs it: each
// device copies its owned values into its extended z[0] buffer and packs
// its send set into the host staging vector, which it leaves in call.w;
// the round is then charged. The halo values are not in z[0] yet: the
// consumer's device fork picks them up from the staging vector (pickup)
// before it computes. depth1 restricts the exchange to the distance-1
// halo and its send set — all a plain SpMV reads. On a host-hub machine
// the exchange is the paper's compress / expand / scatter (one reduce
// round and one broadcast round on the ledger); on a peer-to-peer
// topology the owners ship the halo values directly in one routed round
// of the given traffic matrix (the host staging buffer still carries the
// numerical values — it stands in for the peer copy engine). The charge
// depends on the compute fence (the packed column is the output of
// earlier kernels); the returned event fires when the halo values have
// landed on the devices.
func (k *MPK) exchange(v *Vectors, j int, phase string, elem gpu.Elem, traffic [][]int, depth1 bool) gpu.StreamEvent {
	m := k.M
	w := k.w[k.wIdx]
	k.wIdx = 1 - k.wIdx

	// The column being exchanged was produced by device kernels; the
	// gather cannot start before they finish. Capture the fence *before*
	// submitting anything else so later interior kernels do not serialize
	// the exchange behind themselves.
	prod := m.Ctx.ComputeFence()

	k.call.v, k.call.j, k.call.w, k.call.elem, k.call.depth1 = v, j, w, elem, depth1
	m.Ctx.RunAll(k.packBody)
	return m.Ctx.HaloExchangeElemOn(phase, k.sendBytes, k.recvBytes, traffic, elem, prod)
}

// pack is exchange's device body on device d: copy the owned values of
// the column into z[0] and the send set into the staging vector. Devices
// write disjoint global slots, so no synchronization is needed.
func (k *MPK) pack(d int) {
	m, depth1, elem := k.M, k.call.depth1, k.call.elem
	dm := m.Dev[d]
	col := k.call.v.Local[d].Col(k.call.j)
	copy(k.z[d][0][:dm.NOwn], col)
	base := m.Layout.OwnStart(d)
	send := dm.SendIdx
	if depth1 {
		send = dm.SendIdx1
	}
	w := k.call.w
	for _, li := range send {
		w[base+li] = col[li]
	}
	k.sendBytes[d] = len(send) * elem.Bytes()
	k.recvBytes[d] = k.haloLen(d, depth1) * elem.Bytes()
}

// haloLen is the number of halo values device d receives: its whole halo,
// or under depth1 only the distance-1 part.
func (k *MPK) haloLen(d int, depth1 bool) int {
	dm := k.M.Dev[d]
	if depth1 {
		return dm.RowsAtDist[1] - dm.NOwn
	}
	return len(dm.Halo)
}

// pickup runs on device d inside the consumer's fork: it copies d's halo
// values from the staging vector the last exchange filled into z[0],
// rounded to the wire width the payload crossed the interconnect at.
func (k *MPK) pickup(d int) {
	dm := k.M.Dev[d]
	halo := dm.Halo[:k.haloLen(d, k.call.depth1)]
	z := k.z[d][0][dm.NOwn : dm.NOwn+len(halo)]
	for h, g := range halo {
		z[h] = k.call.w[g]
	}
	roundElem(z, k.call.elem)
}

// validateShiftPairs enforces the pairing convention: a shift with
// positive imaginary part must be immediately followed by its conjugate.
func validateShiftPairs(shifts []complex128) {
	for i := 0; i < len(shifts); i++ {
		if imag(shifts[i]) > 0 {
			if i+1 >= len(shifts) || cmplx.Abs(shifts[i+1]-cmplx.Conj(shifts[i])) > 1e-9*(1+cmplx.Abs(shifts[i])) {
				panic(fmt.Sprintf("dist: complex shift %v at %d not followed by its conjugate", shifts[i], i))
			}
			i++
		} else if imag(shifts[i]) < 0 {
			panic(fmt.Sprintf("dist: dangling conjugate shift %v at %d", shifts[i], i))
		}
	}
}

// SpMV computes column jDst := A * column jSrc through the same exchange
// machinery with a depth-1 prefix — the standard distributed sparse
// matrix-vector product GMRES uses (one gather round, one scatter round,
// one local multiply). The matrix may have been built with any s >= 1:
// only the distance-1 halo is exchanged and only the owned rows are
// multiplied, so the result and the ledger charge are those of a
// dedicated s = 1 distribution.
func (k *MPK) SpMV(src *Vectors, jSrc int, dst *Vectors, jDst int, phase string) {
	m := k.M
	halo := k.exchange(src, jSrc, phase, gpu.Elem64, m.PeerTraffic1, true)
	k.call.v, k.call.j = dst, jDst
	m.Ctx.RunAll(k.spmvBody)
	if m.Ctx.OverlapEnabled() && len(m.Dev) > 1 {
		k.splitFirstStep(k.steps[0], halo, phase, gpu.Elem64)
	} else {
		m.Ctx.DeviceKernelOn(phase, k.steps[0], halo)
	}
}

// spmvDev is SpMV's device body on device d: pick up the distance-1 halo
// exchange staged in call.w, multiply the owned rows into the destination
// column.
func (k *MPK) spmvDev(d int) {
	k.pickup(d)
	dm := k.M.Dev[d]
	rows := dm.NOwn
	dm.Ext.MulVecPrefix(k.call.v.Local[d].Col(k.call.j), k.z[d][0], rows)
	nnz := dm.NNZPrefix[0]
	k.steps[0][d] = gpu.Work{Flops: 2 * float64(nnz), Bytes: float64(nnz)*12 + float64(rows)*16}
}
