// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the simulated multi-GPU runtime.
//
// Usage:
//
//	experiments [flags]
//
//	-fig string     which figure to run: 3, 6, 7, 8, 10, 11, 13, 14, 15,
//	                overlap, topology, cluster, overload, precision,
//	                ablation or "all" (default "all")
//	-scale float    matrix scale relative to the published sizes
//	                (default 0.02; 1.0 = paper-sized, slow)
//	-devices int    maximum simulated GPU count (default 3)
//	-restarts int   restart-loop cap per solve (default 40)
//	-csv dir        also write each figure's rows as CSV files into dir
//	-measured       time the Figure 11(a,b) host kernels with the wall
//	                clock (warmup + best-of-5) instead of the
//	                deterministic cost model
//	-traceout file  dump a Chrome trace_event JSON of every simulated
//	                context (open in chrome://tracing or Perfetto)
//	-metrics file   write Prometheus text-format metrics aggregated over
//	                every simulated context
//	-serve addr     serve /metrics, /metrics.json, /trace.json and
//	                /debug/pprof; starts before the figures (so -measured
//	                runs can be profiled live) and blocks after them
//	-overlap        arm the asynchronous stream engine in the overlap
//	                study (default true); -overlap=off is the escape
//	                hatch that degenerates it to the barrier schedule
//	-overlapcheck   regression gate: exit 1 unless the stream schedule
//	                strictly beats the synchronous schedule on the full
//	                device count for every s in the overlap study
//	-profile name   machine profile for the figure drivers (m2090,
//	                a100-pcie, h100-nvlink); the classic figures were
//	                calibrated against m2090, so under another profile
//	                they answer "this figure, on that box"
//	-topology kind  override the profile's interconnect (host-hub,
//	                pcie-switch, nvlink-ring, all-to-all)
//	-precision mode run every CA-GMRES arm under this precision mode
//	                (fp64, mixed, adaptive); the classic figures were
//	                calibrated at fp64, so a narrow mode answers "this
//	                figure, at that width"
//
// By default every figure is a pure function of the calibrated cost
// model: rerunning produces byte-identical numbers on any machine. Only
// -measured touches the wall clock.
//
// Absolute times come from the calibrated M2090/PCIe-2 cost model and are
// not expected to match the authors' testbed; the shapes (who wins, by
// what factor, where the crossovers fall) are the reproduction targets.
// See EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cagmres/internal/bench"
	"cagmres/internal/core"
	"cagmres/internal/measure"
	"cagmres/internal/obs"
	"cagmres/internal/profile"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (3,6,7,8,10,11,13,14,15,overlap,topology,cluster,overload,precision,ablation,all)")
	scale := flag.Float64("scale", 0.02, "matrix scale relative to published sizes")
	devices := flag.Int("devices", 3, "maximum simulated GPU count")
	restarts := flag.Int("restarts", 40, "restart cap per solve")
	csvDir := flag.String("csv", "", "also write each figure's rows as CSV files into this directory")
	measured := flag.Bool("measured", false, "time the Figure 11(a,b) host kernels with the wall clock (warmup + best-of-5) instead of the deterministic cost model")
	traceout := flag.String("traceout", "", "write a Chrome trace_event JSON of every simulated context to this file (open in chrome://tracing or Perfetto)")
	traceEvents := flag.Int("trace-events", bench.DefaultTraceEvents, "per-context event capacity for -traceout")
	metrics := flag.String("metrics", "", "write Prometheus text-format metrics aggregated over every simulated context to this file")
	serve := flag.String("serve", "", "serve /metrics, /trace.json and /debug/pprof on this address; starts before the figures run (profile -measured live) and blocks after them")
	profName := flag.String("profile", "", "machine profile for the figure drivers (m2090, a100-pcie, h100-nvlink); empty keeps the paper's m2090")
	topoName := flag.String("topology", "", "override the profile's interconnect topology (host-hub, pcie-switch, nvlink-ring, all-to-all)")
	precisionMode := flag.String("precision", "", "run every CA-GMRES arm under this precision mode (fp64, mixed, adaptive); empty keeps the calibrated full-double pipeline")
	overlap := onOffFlag(true)
	flag.Var(&overlap, "overlap", "arm the asynchronous stream engine in the overlap study; -overlap=off degenerates it to the barrier schedule")
	overlapCheck := flag.Bool("overlapcheck", false, "exit 1 unless the stream schedule strictly beats the synchronous schedule on the full device count")
	flag.Parse()

	prof, err := profile.FromFlags(*profName, *topoName)
	if err != nil {
		fatalf("%v", err)
	}
	if _, err := core.NormalizePrecision(*precisionMode); err != nil {
		fatalf("%v", err)
	}
	cfg := bench.Config{
		Scale:       *scale,
		MaxDevices:  *devices,
		MaxRestarts: *restarts,
		Out:         os.Stdout,
		Overlap:     bool(overlap),
		Profile:     prof,
		Precision:   *precisionMode,
	}
	if *profName != "" || *topoName != "" {
		fmt.Printf("machine profile: %s (topology %s)\n", prof.Name, prof.Topo.Kind)
	}
	if *measured {
		cfg.Timer = &measure.WallTimer{}
	}
	if *traceout != "" || *metrics != "" || *serve != "" {
		cfg.Trace = bench.NewTraceCollector(*traceEvents)
	}

	var reg *obs.Registry
	if *metrics != "" || *serve != "" {
		reg = obs.NewRegistry()
		// Every timed host kernel also lands in the registry's histograms.
		if cfg.Timer == nil {
			cfg.Timer = measure.NewModelTimer(prof.Model)
		}
		cfg.Timer = measure.Instrument(cfg.Timer, reg)
	}
	if *serve != "" {
		// Start before the figures so /debug/pprof can profile a live
		// -measured run; /metrics fills in as contexts are collected below.
		_, addr, err := obs.Serve(*serve, obs.Handler(reg, cfg.Trace.Traces))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving /metrics, /metrics.json, /trace.json, /debug/pprof on http://%s\n", addr)
	}

	emit := func(name string, rows any) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := bench.WriteCSV(path, rows); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", path, err)
			return
		}
		fmt.Printf("wrote %s\n", path)
	}
	drivers := []struct {
		name string
		run  func()
	}{
		{"3", func() { emit("fig3", bench.Fig3(cfg)) }},
		{"6", func() { emit("fig6", bench.Fig6(cfg).Rows) }},
		{"7", func() { emit("fig7", bench.Fig7(cfg).Rows) }},
		{"8", func() { emit("fig8", bench.Fig8(cfg).Rows) }},
		{"10", func() { emit("fig10", bench.Fig10(cfg)) }},
		{"11", func() {
			emit("fig11ab", bench.Fig11ab(cfg))
			emit("fig11c", bench.Fig11c(cfg))
		}},
		{"13", func() {
			r := bench.Fig13(cfg)
			emit("fig13_s20", r.Rows20)
			emit("fig13_s30", r.Rows30)
			emit("fig13_monomial", r.RowsMonomial)
		}},
		{"14", func() { emit("fig14", bench.Fig14(cfg)) }},
		{"15", func() { emit("fig15", bench.Fig15(cfg)) }},
		{"overlap", func() {
			rows := bench.FigOverlap(cfg)
			emit("figoverlap", rows)
			if *overlapCheck {
				if err := checkOverlap(rows, cfg.MaxDevices); err != nil {
					fatalf("%v", err)
				}
				fmt.Println("overlap regression gate: stream schedule strictly beats synchronous")
			}
		}},
		{"topology", func() { emit("figtopology", bench.FigTopology(cfg)) }},
		{"cluster", func() { emit("figcluster", bench.FigCluster(cfg)) }},
		{"overload", func() { emit("figoverload", bench.FigOverload(cfg)) }},
		{"precision", func() { emit("figprecision", bench.FigPrecision(cfg)) }},
		{"ablation", func() {
			emit("ablation_latency", bench.AblationLatency(cfg))
			emit("ablation_basis", bench.AblationBasis(cfg))
			emit("ablation_precision", bench.AblationPrecision(cfg))
			emit("ablation_fusedcgs", bench.AblationFusedCGS(cfg))
			emit("ablation_adaptive", bench.AblationAdaptive(cfg))
		}},
	}

	if *fig == "all" && !overlap {
		// The escape hatch applies to the overlap study itself; nothing
		// else consumes the engine, so "all" stays meaningful either way.
		fmt.Println("note: -overlap=off, the overlap study runs both arms synchronously")
	}
	want := strings.Split(*fig, ",")
	matched := false
	for _, d := range drivers {
		if *fig != "all" && !contains(want, d.name) {
			continue
		}
		matched = true
		start := time.Now()
		fmt.Printf("==== Figure %s (scale %g, %d devices) ====\n", d.name, cfg.Scale, cfg.MaxDevices)
		if cfg.Trace != nil {
			cfg.Trace.SetLabel("fig" + d.name)
		}
		d.run()
		fmt.Printf("---- %.1fs ----\n\n", time.Since(start).Seconds())
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "experiments: unknown -fig %q (want 3,6,7,8,10,11,13,14,15,overlap,topology,cluster,overload,precision,ablation or all)\n", *fig)
		os.Exit(2)
	}
	if *traceout != "" {
		f, err := os.Create(*traceout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := cfg.Trace.WriteChrome(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "experiments: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d traced contexts)\n", *traceout, len(cfg.Trace.Traces()))
	}

	if reg != nil {
		// Fold every simulated context's ledger into the registry, then the
		// retained event rings into the size/duration histograms.
		for _, c := range cfg.Trace.Contexts() {
			obs.CollectStats(reg, c.Stats())
			obs.ObserveTrace(reg, c.Stats().Trace())
		}
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fatalf("%v", err)
		}
		err = reg.WritePrometheus(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("writing %s: %v", *metrics, err)
		}
		fmt.Printf("wrote %s\n", *metrics)
	}

	if *serve != "" {
		fmt.Println("figures done; still serving (ctrl-C to stop)")
		select {}
	}
}

// onOffFlag is a boolean flag that also accepts on/off, so the
// documented -overlap=off escape hatch reads naturally alongside the
// standard boolean spellings.
type onOffFlag bool

func (f *onOffFlag) String() string {
	if f == nil || bool(*f) {
		return "on"
	}
	return "off"
}

func (f *onOffFlag) Set(s string) error {
	switch strings.ToLower(s) {
	case "on":
		*f = true
	case "off":
		*f = false
	default:
		v, err := strconv.ParseBool(s)
		if err != nil {
			return fmt.Errorf("want on, off, or a boolean")
		}
		*f = onOffFlag(v)
	}
	return nil
}

// IsBoolFlag lets a bare -overlap mean -overlap=on.
func (f *onOffFlag) IsBoolFlag() bool { return true }

// checkOverlap is the regression gate behind -overlapcheck: every row
// must satisfy overlap <= sync, and the full-device rows must win
// strictly for every basis depth.
func checkOverlap(rows []bench.OverlapRow, maxDevices int) error {
	for _, r := range rows {
		if r.OverlapSec > r.SyncSec {
			return fmt.Errorf("overlap regression: s=%d ng=%d stream %.6g s exceeds synchronous %.6g s",
				r.S, r.Devices, r.OverlapSec, r.SyncSec)
		}
		if r.Devices == maxDevices && r.OverlapSec >= r.SyncSec {
			return fmt.Errorf("overlap regression: s=%d ng=%d no strict win (stream %.6g s, synchronous %.6g s)",
				r.S, r.Devices, r.OverlapSec, r.SyncSec)
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
