package core

import (
	"errors"
	"fmt"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
)

// This file is the solvers' self-healing layer over the fault-injecting
// runtime (internal/gpu). Device deaths surface as *gpu.DeviceLostError
// panics raised from ledger charges; the healing wrapper recovers them,
// re-partitions the problem's row blocks uniformly across the surviving
// devices, and re-enters the solver from the last restart boundary using
// a checkpoint of the iterate and the restart-loop state. Transfer
// faults that exhaust the retry policy (*gpu.TransferError) are not
// healed here — they are returned as ordinary errors so the scheduler
// can re-queue the whole job on a healthy context.

// FaultReport summarizes the faults a solve observed and the recovery
// actions it took. Attached to Result.Faults only when something
// actually happened, so fault-free solves carry a nil report.
type FaultReport struct {
	// DevicesLost lists the physical ids of devices that died during the
	// solve, ascending.
	DevicesLost []int
	// Repartitions counts how many times the row blocks were re-cut
	// across survivors (once per device-loss recovery).
	Repartitions int
	// CheckpointRestores counts recoveries that resumed from a restart
	// boundary with real progress (checkpointed restart > 0), as opposed
	// to starting the solve over.
	CheckpointRestores int
	// TransferFaults and TransferRetries mirror the runtime's tally of
	// injected transfer-round failures and successful retries.
	TransferFaults  int
	TransferRetries int
}

// checkpoint is the resume state captured at each restart boundary while
// a fault plan is armed: the current iterate (prepared coordinates) plus
// the restart-loop counters, and for CA-GMRES the shift schedule and
// step-halving state. Capturing uses the uncharged GatherCol helper, so
// checkpoint maintenance never perturbs the modeled ledger.
type checkpoint struct {
	captured bool
	x        []float64 // iterate at the boundary, prepared coordinates
	restart  int       // restart index to resume at
	restarts int       // Result counters at the boundary
	iters    int
	history  []float64

	// CA-GMRES boundary state (caSolver.save).
	ca caBoundary
	// precLevel is the precision policy's level at the boundary, so a
	// healed attempt resumes at the width the solve had already
	// tightened to (tighten-only survives device loss).
	precLevel int
}

// capture records the boundary state every solver has.
func (ck *checkpoint) capture(x []float64, restart int, res *Result) {
	ck.x = x
	ck.restart = restart
	ck.restarts = res.Restarts
	ck.iters = res.Iters
	ck.history = append(ck.history[:0], res.History...)
	ck.captured = true
}

// solveHealing owns the solve lifecycle shared by GMRES and CAGMRES:
// reset the ledger once, then run attempts of cycler s (telemetry name
// solver, over a depth-deep distribution) until one finishes. A device
// loss shrinks the problem onto the survivors and retries from the
// checkpoint; losing the last device is unrecoverable. The loop is
// bounded by the device count — every heal removes at least one device.
// opts have passed Check.
func solveHealing(p *Problem, opts Options, solver string, depth int, s cycler) (*Result, error) {
	if opts.Profile != nil {
		p.Ctx.SetProfile(*opts.Profile)
	}
	p.Ctx.ResetStats()
	p.Ctx.SetOverlap(opts.Overlap)
	em := newEmitter(opts.Telemetry, solver, p.Ctx)
	ck := &checkpoint{}
	var report *FaultReport
	cur := p
	for {
		res, err := attempt(cur, &opts, solver, depth, s, ck)
		var lost *gpu.DeviceLostError
		if errors.As(err, &lost) {
			surv, serr := cur.Ctx.Survivors()
			if serr != nil {
				return nil, fmt.Errorf("core: solve unrecoverable, no surviving devices: %w", lost)
			}
			if report == nil {
				report = &FaultReport{}
			}
			report.DevicesLost = cur.Ctx.DeadDevices()
			report.Repartitions++
			if ck.captured && ck.restart > 0 {
				report.CheckpointRestores++
			}
			em.emit(obs.Record{Kind: "repartition", Restart: ck.restart, Step: surv.NumDevices})
			cur = cur.Repartition(surv)
			continue
		}
		if res != nil {
			fc := cur.Ctx.FaultCounts()
			if report == nil && (fc.TransferFaults > 0 || fc.TransferRetries > 0) {
				report = &FaultReport{}
			}
			if report != nil {
				report.TransferFaults = fc.TransferFaults
				report.TransferRetries = fc.TransferRetries
				res.Faults = report
			}
		}
		return res, err
	}
}

// guardFaults, deferred, is the recovery boundary: it converts the
// runtime's fault panics into the deferring function's error (its other
// results stay zero). Any other panic is a genuine bug and propagates.
func guardFaults(err *error) {
	switch e := recover().(type) {
	case nil:
	case *gpu.DeviceLostError:
		*err = e
	case *gpu.TransferError:
		*err = e
	default:
		panic(e)
	}
}
