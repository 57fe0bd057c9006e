package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// fastest returns the smallest of xs: of several timings of the same
// work, the one the shared host disturbed least.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// fastestAt returns xs with every sample replaced by the fastest sample
// of its position: xs[j] was measured at position pos[j] of the op list
// a window passes over again and again, so samples that share a
// position timed identical work.
func fastestAt(xs []float64, pos []int) []float64 {
	best := map[int]float64{}
	for j, x := range xs {
		if b, ok := best[pos[j]]; !ok || x < b {
			best[pos[j]] = x
		}
	}
	out := make([]float64, len(xs))
	for j := range xs {
		out[j] = best[pos[j]]
	}
	return out
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver uses to judge run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)-j*4) / 4
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// usage is a snapshot of the allocator's and collector's counters a
// timed window is measured against.
type usage struct {
	alloc   uint64
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

// cpuSeconds is the user+sys CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// window is what one timed window of ops produced. A window is whole
// passes over the workload's op list, so every list position is timed
// several times on identical work. The shared host only ever slows a
// repeat down, by a share that changes from second to second and from
// minute to minute, so the time figures keep the fastest repeat of each
// piece of work and drop the others: durations holds, per succeeded op,
// the fastest duration seen at the op's list position, and wall and cpu
// are what the succeeded ops took put together from fastest repeats
// (see solveWindow.settle and window.settle). Percentiles are then taken
// over the ops, that is, over the inputs.
type window struct {
	durations []float64
	raw       []float64 // the same ops as measured, for the full document
	attempted int
	failed    int
	wall      float64
	cpu       float64
	before    usage // allocation counters around the whole window
	after     usage
}

func (w *window) ops() int { return len(w.durations) }

// endToEndMetrics fills the end-to-end metrics of a window. Failed ops
// have no duration and so count as missing from the throughput.
func (w *window) endToEndMetrics(m *metricSet, setupS float64, tailPct int) {
	ops := float64(w.ops())
	m.set("setup_s", setupS)
	m.set("op_p50_s", median(w.durations))
	m.set("op_tail_s", percentile(w.durations, float64(tailPct)))
	m.set("throughput_ops_s", ops/w.wall)
	if ops > 0 {
		m.set("cpu_s_per_op", w.cpu/ops)
		m.set("alloc_mb_per_op", float64(w.after.alloc-w.before.alloc)/1e6/ops)
		m.set("allocs_per_op", float64(w.after.mallocs-w.before.mallocs)/ops)
	}
}

// gcMetrics fills the collector's share of a traced window.
func (w *window) gcMetrics(m *metricSet) {
	if ops := float64(w.ops()); ops > 0 {
		m.set("proc.gc_cycles_per_op", float64(w.after.numGC-w.before.numGC)/ops)
		m.set("proc.gc_pause_s_per_op", float64(w.after.pauseNs-w.before.pauseNs)/1e9/ops)
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
