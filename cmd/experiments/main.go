// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the simulated multi-GPU runtime.
//
// Usage:
//
//	experiments [flags]
//
//	-fig string     comma-separated names of the figures to run, from
//	                bench.Figures (-h lists them), or "all" (default "all")
//	-scale float    matrix scale relative to the published sizes
//	                (default 0.02; 1.0 = paper-sized, slow)
//	-devices int    maximum simulated GPU count (default 3)
//	-restarts int   restart-loop cap per solve (default 40)
//	-csv dir        also write each figure's rows as CSV files into dir
//	-traceout file  dump a Chrome trace_event JSON of every simulated
//	                context (open in chrome://tracing or Perfetto)
//	-metrics file   write Prometheus text-format metrics aggregated over
//	                every simulated context
//	-serve addr     serve /metrics, /metrics.json, /trace.json and
//	                /debug/pprof; starts before the figures (so a run
//	                can be profiled live) and blocks after them
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
// Every figure is a pure function of the calibrated cost model:
// rerunning produces byte-identical numbers on any machine. The figures
// read no clock; the per-figure footer is elapsed wall time.
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
	"slices"
	"strings"
	"time"

	"cagmres/internal/bench"
	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/obs"
	"cagmres/internal/profile"
)

func main() {
	var names []string
	for _, f := range bench.Figures {
		names = append(names, f.Name)
	}
	fig := flag.String("fig", "all", "figure to regenerate ("+strings.Join(names, ",")+",all)")
	scale := flag.Float64("scale", 0.02, "matrix scale relative to published sizes")
	devices := flag.Int("devices", 3, "maximum simulated GPU count")
	restarts := flag.Int("restarts", 40, "restart cap per solve")
	csvDir := flag.String("csv", "", "also write each figure's rows as CSV files into this directory")
	traceout := flag.String("traceout", "", "write a Chrome trace_event JSON of every simulated context to this file (open in chrome://tracing or Perfetto)")
	traceEvents := flag.Int("trace-events", bench.DefaultTraceEvents, "per-context event capacity for -traceout")
	metrics := flag.String("metrics", "", "write Prometheus text-format metrics aggregated over every simulated context to this file")
	serve := flag.String("serve", "", "serve /metrics, /trace.json and /debug/pprof on this address; starts before the figures run and blocks after them")
	profName := flag.String("profile", "", "machine profile for the figure drivers (m2090, a100-pcie, h100-nvlink); empty keeps the paper's m2090")
	topoName := flag.String("topology", "", "override the profile's interconnect topology (host-hub, pcie-switch, nvlink-ring, all-to-all)")
	precisionMode := flag.String("precision", "", "run every CA-GMRES arm under this precision mode (fp64, mixed, adaptive); empty keeps the calibrated full-double pipeline")
	flag.Parse()
	want := names
	if *fig != "all" {
		want = strings.Split(*fig, ",")
	}
	for _, name := range want {
		if !slices.Contains(names, name) {
			fmt.Fprintf(os.Stderr, "experiments: unknown -fig %q (want %s or all)\n", name, strings.Join(names, ","))
			os.Exit(2)
		}
	}
	// The drivers read a zero as unset, so refuse out-of-range
	// counts here rather than let them become the defaults.
	if *devices < 1 {
		fatalf("-devices %d: need at least 1", *devices)
	}
	if *restarts < 1 {
		fatalf("-restarts %d: need at least 1", *restarts)
	}
	if !(*scale > 0) { // NaN too
		fatalf("-scale %g: need a positive scale", *scale)
	}

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
		Profile:     prof,
		Precision:   *precisionMode,
	}
	if *profName != "" || *topoName != "" {
		fmt.Printf("machine profile: %s (topology %s)\n", prof.Name, prof.Topo.Kind)
	}
	if *traceout != "" || *metrics != "" || *serve != "" {
		cfg.Trace = bench.NewTraceCollector(*traceEvents)
	}

	var reg *obs.Registry
	if *metrics != "" || *serve != "" {
		reg = obs.NewRegistry()
	}
	if *serve != "" {
		// Start before the figures so /debug/pprof can profile a live
		// run; /metrics fills in as contexts are collected below.
		_, addr, err := obs.Serve(*serve, obs.Handler(reg, cfg.Trace.Traces))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving /metrics, /metrics.json, /trace.json, /debug/pprof on http://%s\n", addr)
	}

	for _, f := range bench.Figures {
		if !slices.Contains(want, f.Name) {
			continue
		}
		start := time.Now()
		fmt.Printf("==== Figure %s (scale %g, %d devices) ====\n", f.Name, cfg.Scale, cfg.MaxDevices)
		if cfg.Trace != nil {
			cfg.Trace.SetLabel("fig" + f.Name)
		}
		for _, tab := range f.Run(cfg) {
			if *csvDir == "" {
				continue
			}
			path := filepath.Join(*csvDir, tab.Name+".csv")
			if err := bench.WriteCSV(path, tab.Rows); err != nil {
				fatalf("writing %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Printf("---- %.1fs ----\n\n", time.Since(start).Seconds())
	}
	if *traceout != "" {
		traces := cfg.Trace.Traces()
		f, err := os.Create(*traceout)
		if err == nil {
			err = gpu.WriteChromeTrace(f, traces)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d traced contexts)\n", *traceout, len(traces))
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
