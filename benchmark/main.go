// Command benchmark is the wall-clock benchmark of this repository: four
// seeded workloads, seven end-to-end metrics measured with tracing off,
// and a traced run that times every layer at the workload's own shapes.
// It drives the code only through public functions of the internal
// packages and the HTTP surface of an in-process router and nodes.
//
//	go run ./benchmark -workload ca-dense-rows -seed 1 -seconds 20 -trace 0
//	go run ./benchmark                       # all workloads, one child process each
//	go run ./benchmark -trace 1 -runs 3      # ... three seeds each, plus a traced run
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -selfcheck
//
// See README.md in this directory for the metrics and how to read them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
)

func main() {
	workloadName := flag.String("workload", "", "run this one workload in this process and print the driver's result line")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "length of the timed window of a run")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics and a Chrome trace); 0: end-to-end metrics")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for the full documents and traces")
	runs := flag.Int("runs", 1, "suite: untraced runs per workload, on consecutive seeds")
	compare := flag.Bool("compare", false, "compare two suite documents: -compare old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two")
	flag.Parse()
	// One thread runs Go code: a run then times the work, which this
	// shared box can do steadily; how well two of its cores overlap it
	// cannot (README.md, "Timing on a shared box").
	runtime.GOMAXPROCS(1)

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: *out}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two suite documents")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *workloadName != "":
		err = runOne(*workloadName, cfg)
	default:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if *selfcheck {
			err = runSelfcheck(ctx, cfg, max(*runs, 3))
		} else {
			var doc *suite
			if doc, err = runSuite(ctx, cfg, *runs); err == nil {
				err = doc.write(filepath.Join(cfg.OutDir, "suite.json"), os.Stdout)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process: the full document goes under
// the output directory, the driver's result line to standard output.
func runOne(name string, cfg runConfig) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.Seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", cfg.Seconds)
	}
	run := runSolve
	if w.Serve {
		run = runServe
	}
	rep, err := run(w, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := rep.write(); err != nil {
		return err
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", name, f)
	}
	fmt.Println(rep.resultLine())
	return nil
}
