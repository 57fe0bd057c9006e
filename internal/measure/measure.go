// Package measure gives every benchmark and test a deterministic clock.
//
// The paper's results are statements about modeled communication and
// computation structure, yet a naive reproduction times real Go kernels
// with time.Now() — which turns every perf assertion into a wall-clock
// coin flip on a loaded CI host. This package separates the two concerns
// behind one interface:
//
//   - ModelTimer charges each host kernel's cost shape (flops, bytes,
//     parallelism, dispatch count) through the gpu.CostModel host
//     constants. The result is a pure function of the model, so figure
//     generators report byte-identical Gflop/s on every machine and every
//     run. The kernel body is still executed once, so the code path stays
//     exercised; only the clock is synthetic.
//
//   - WallTimer wraps real timing with a warmup and the best of five
//     repetitions — the statistics-aware fallback for the opt-in
//     "measured" mode (cmd/experiments -measured).
//
// Benchmark drivers take a Timer and do not care which one they get;
// Timer.Deterministic reports whether exact assertions are safe.
package measure

import (
	"time"

	"cagmres/internal/gpu"
)

// Kernel describes the cost shape of one host-kernel invocation: the
// structural facts a cost model needs, independent of the machine the
// benchmark happens to run on.
type Kernel struct {
	// Name identifies the kernel in tables and traces.
	Name string
	// Flops is the floating-point operation count of one invocation.
	Flops float64
	// Bytes is the memory traffic (reads + writes) of one invocation.
	Bytes float64
	// Parallelism is the number of concurrent workers the kernel schedule
	// uses: 1 for the serial/one-pass kernels, the panel count for the
	// batched tall-skinny kernels. Values above the model's core count
	// are capped there.
	Parallelism int
	// Dispatches is the number of per-invocation scheduling events
	// (goroutine spawns / kernel launches / reduction joins), each charged
	// a fixed dispatch overhead. It is what makes many tiny launches
	// expensive even before any data moves.
	Dispatches int
}

// Sample is the result of timing one kernel.
type Sample struct {
	// Seconds is the selected per-invocation time.
	Seconds float64
	// Reps is how many timed repetitions contributed (1 for modeled time).
	Reps int
	// Modeled reports whether Seconds came from a cost model rather than
	// a clock.
	Modeled bool
}

// Gflops converts the sample to a rate for the given flop count.
func (s Sample) Gflops(flops float64) float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return flops / s.Seconds / 1e9
}

// Duration returns the per-invocation time as a time.Duration.
func (s Sample) Duration() time.Duration {
	return time.Duration(s.Seconds * float64(time.Second))
}

// Timer converts one kernel invocation into seconds. Implementations
// decide whether f is timed (WallTimer) or merely executed for its side
// effects while the clock comes from a model (ModelTimer). f may be nil
// when the caller only wants the cost estimate.
type Timer interface {
	// Time measures one invocation of f described by k.
	Time(k Kernel, f func()) Sample
	// Deterministic reports whether repeated calls return identical
	// samples, i.e. whether exact equality assertions are safe.
	Deterministic() bool
}

// HostCores is the core count of the modeled host: the paper's testbed
// has two 8-core Sandy Bridge sockets. CostModel.HostGflops and
// HostMemBW are aggregate figures over these cores.
const HostCores = 16

// serialBWShare is the fraction of the aggregate two-socket memory
// bandwidth a single core can sustain (typical STREAM scaling: one core
// saturates roughly a quarter of the socket-pair bandwidth).
const serialBWShare = 0.25

// dispatchSeconds is the modeled cost of one host scheduling event
// (goroutine spawn + channel synchronization), ~1 microsecond.
const dispatchSeconds = 1e-6

// ModelTimer charges kernels against the host side of a gpu.CostModel
// on HostCores cores. The zero value is not useful; construct with
// NewModelTimer.
type ModelTimer struct {
	// Model supplies HostGflops and HostMemBW.
	Model gpu.CostModel
}

// NewModelTimer returns a deterministic timer over the given cost model.
func NewModelTimer(m gpu.CostModel) *ModelTimer {
	return &ModelTimer{Model: m}
}

// Seconds returns the modeled per-invocation time of k: the larger of
// the compute-bound and memory-bound estimates at k's parallelism, plus
// the dispatch overhead. Pure function of (Model, k).
func (t *ModelTimer) Seconds(k Kernel) float64 {
	p := min(max(k.Parallelism, 1), HostCores)
	// Compute rate scales linearly with the engaged cores.
	rate := t.Model.HostGflops * 1e9 * float64(p) / HostCores
	sec := k.Flops / rate
	// Bandwidth saturates once enough cores issue streams: one core
	// sustains serialBWShare of the aggregate, p cores sustain
	// min(1, p*serialBWShare).
	share := float64(p) * serialBWShare
	if share > 1 {
		share = 1
	}
	if mt := k.Bytes / (t.Model.HostMemBW * share); mt > sec {
		sec = mt
	}
	return sec + float64(max(k.Dispatches, 1))*dispatchSeconds
}

// Time executes f once and returns the modeled time.
func (t *ModelTimer) Time(k Kernel, f func()) Sample {
	if f != nil {
		f()
	}
	return Sample{Seconds: t.Seconds(k), Reps: 1, Modeled: true}
}

// Deterministic reports true: modeled time is a pure function of the model.
func (t *ModelTimer) Deterministic() bool { return true }

// The WallTimer schedule: one untimed warmup call, then the fastest of
// wallReps timed batches — the standard estimator for "the cost of the
// kernel absent interference". f runs in a doubling inner loop until a
// batch takes wallMinBatch, at most wallMaxInner calls, so
// sub-microsecond kernels still get stable readings.
const (
	wallWarmup   = 1
	wallReps     = 5
	wallMinBatch = 20 * time.Millisecond
	wallMaxInner = 1024
)

// WallTimer measures real elapsed time with warmup and repetition.
type WallTimer struct{}

// Time measures f with warmup + repetitions and returns the fastest
// per-invocation time. k is used only for documentation; the clock is real.
func (t *WallTimer) Time(k Kernel, f func()) Sample {
	for i := 0; i < wallWarmup; i++ {
		f()
	}
	// Calibrate the inner repetition count once so each timed batch
	// runs at least wallMinBatch.
	inner := 1
	start := time.Now()
	f()
	el := time.Since(start)
	for el < wallMinBatch && inner < wallMaxInner {
		inner *= 2
		start = time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		el = time.Since(start)
	}
	best := el.Seconds() / float64(inner)
	for r := 1; r < wallReps; r++ {
		start = time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		best = min(best, time.Since(start).Seconds()/float64(inner))
	}
	return Sample{Seconds: best, Reps: wallReps}
}

// Deterministic reports false: wall-clock readings vary run to run.
func (t *WallTimer) Deterministic() bool { return false }
