package obs

import (
	"strconv"

	"cagmres/internal/gpu"
)

// Histogram layouts for the ledger-derived distributions: transfer sizes
// span one scalar to a gigabyte, kernel durations one nanosecond of
// modeled time to ten seconds.
var (
	transferBuckets = ExpBuckets(8, 4, 14)     // 8 B .. ~512 MB
	durationBuckets = ExpBuckets(1e-9, 10, 10) // 1 ns .. 10 s
)

// CollectStats folds a gpu.Stats ledger into the registry: per-phase
// time/byte/round counters and the per-device breakdowns. The ledger's
// optional byte columns follow the report tables' rule — a series exists
// only on ledgers where some phase moved such bytes, so a host-routed
// FP64 scrape is unchanged: peer and inter-node volume as further dir
// values of gpu_phase_bytes_total, reduced-width volume (a tag on bytes
// the dir series already count) as gpu_phase_width_bytes_total. Calling
// it again with the same ledger would double-count — collect once per
// solve, or merge ledgers first.
func CollectStats(r *Registry, s *gpu.Stats) {
	cols := s.ByteColumns()
	for _, name := range s.Phases() {
		p := s.Phase(name)
		l := L("phase", name)
		r.CounterL("gpu_phase_comm_seconds_total", "Modeled communication seconds per phase.", l).Add(p.CommTime)
		r.CounterL("gpu_phase_device_seconds_total", "Modeled device-compute seconds per phase (critical path).", l).Add(p.DeviceTime)
		r.CounterL("gpu_phase_host_seconds_total", "Modeled host-compute seconds per phase.", l).Add(p.HostTime)
		r.CounterL("gpu_phase_rounds_total", "Communication rounds per phase.", l).Add(float64(p.Rounds))
		r.CounterL("gpu_phase_messages_total", "Per-device messages per phase.", l).Add(float64(p.Messages))
		r.CounterL("gpu_phase_kernels_total", "Device kernel launches per phase.", l).Add(float64(p.Kernels))
		r.CounterL("gpu_phase_device_flops_total", "Device flops per phase, summed over devices.", l).Add(p.DeviceFlops)
		dirBytes := func(dir string, bytes int) {
			r.CounterL("gpu_phase_bytes_total", "Transferred bytes per phase and direction.",
				L("phase", name, "dir", dir)).Add(float64(bytes))
		}
		dirBytes("d2h", p.BytesD2H)
		dirBytes("h2d", p.BytesH2D)
		for _, c := range cols {
			if c.Width == gpu.Elem64 {
				dirBytes(c.Label, c.Of(p))
			} else {
				r.CounterL("gpu_phase_width_bytes_total", "Transferred bytes per phase that traveled at a reduced element width.",
					L("phase", name, "width", c.Label)).Add(float64(c.Of(p)))
			}
		}
	}
	for d := 0; d < s.TrackedDevices(); d++ {
		dev := strconv.Itoa(d)
		for _, name := range s.Phases() {
			p := s.DevicePhase(d, name)
			if p == (gpu.PhaseStats{}) {
				continue
			}
			l := L("device", dev, "phase", name)
			r.CounterL("gpu_device_seconds_total", "Per-device busy seconds per phase.", l).Add(p.DeviceTime + p.CommTime)
			r.CounterL("gpu_device_kernel_seconds_total", "Per-device kernel seconds per phase.", l).Add(p.DeviceTime)
			r.CounterL("gpu_device_flops_total", "Per-device flops per phase.", l).Add(p.DeviceFlops)
			r.CounterL("gpu_device_kernels_total", "Per-device kernel executions per phase.", l).Add(float64(p.Kernels))
			r.CounterL("gpu_device_bytes_total", "Per-device transferred bytes per phase.", l).Add(float64(p.Bytes()))
		}
	}
}

// ObserveTrace folds a recorded event trace into the registry's
// distribution metrics: transfer-size and kernel-duration histograms.
// Use the same ledger's Trace() that CollectStats summarized; if the
// ring wrapped, the histograms cover the retained tail.
func ObserveTrace(r *Registry, events []gpu.Event) {
	for _, e := range events {
		switch e.Kind {
		case "reduce", "broadcast", "peer":
			r.HistogramL("gpu_transfer_bytes", "Per-round transfer sizes.",
				transferBuckets, L("dir", dirLabel(e.Kind))).Observe(float64(e.Bytes))
		case "kernel":
			r.Histogram("gpu_kernel_seconds", "Per-device modeled kernel durations.",
				durationBuckets).Observe(e.Time)
		}
	}
}

func dirLabel(kind string) string {
	switch kind {
	case "reduce":
		return "d2h"
	case "peer":
		return "p2p"
	}
	return "h2d"
}
