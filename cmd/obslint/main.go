// Command obslint validates the observability artifacts the solvers and
// benchmark drivers emit:
//
//	obslint -prom out.prom        lint Prometheus text-format metrics
//	obslint -jsonl out.jsonl      lint a convergence-telemetry stream
//	obslint -trace out.trace.json validate a Chrome trace_event export
//	                               (ph M or X, ms units, dur ≥ 0, every
//	                               slice's lane named by thread_name)
//	obslint -spans out.spans.jsonl validate a request-trace span stream
//	                               (required fields, unique ids, one
//	                               trace id, acyclic parentage, child
//	                               intervals nested in their parents)
//
// -require, combined with -prom, additionally demands that the named
// metric families are declared — how make serve-smoke asserts a running
// cagmresd exports the scheduler's queue/lease/latency instruments, and
// make trace-smoke the slo_*/trace_* families.
//
// Any combination of flags may be given; the command exits non-zero on
// the first failing artifact. make metrics-smoke runs a small solve and
// pushes the first three outputs through this command; make trace-smoke
// adds the span stream of a traced request.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
)

func main() {
	prom := flag.String("prom", "", "Prometheus text-format file to lint")
	jsonl := flag.String("jsonl", "", "JSON-lines telemetry file to lint")
	trace := flag.String("trace", "", "Chrome trace_event JSON file to validate")
	spans := flag.String("spans", "", "JSON-lines span-stream file to validate")
	require := flag.String("require", "", "comma-separated metric families that -prom must declare")
	flag.Parse()
	if *prom == "" && *jsonl == "" && *trace == "" && *spans == "" {
		fmt.Fprintln(os.Stderr, "obslint: nothing to do (want -prom, -jsonl, -trace and/or -spans)")
		os.Exit(2)
	}
	if *require != "" && *prom == "" {
		fmt.Fprintln(os.Stderr, "obslint: -require needs -prom")
		os.Exit(2)
	}

	if *prom != "" {
		data := read(*prom)
		if err := obs.LintPrometheus(data); err != nil {
			fail(*prom, err)
		}
		if *require != "" {
			var families []string
			for _, f := range strings.Split(*require, ",") {
				if f = strings.TrimSpace(f); f != "" {
					families = append(families, f)
				}
			}
			if err := obs.RequireFamilies(data, families); err != nil {
				fail(*prom, err)
			}
			fmt.Printf("%s: ok (Prometheus text format, %d required families present)\n",
				*prom, len(families))
		} else {
			fmt.Printf("%s: ok (Prometheus text format)\n", *prom)
		}
	}
	if *jsonl != "" {
		data := read(*jsonl)
		recs, err := obs.LintTelemetry(data)
		if err != nil {
			fail(*jsonl, err)
		}
		fmt.Printf("%s: ok (%d telemetry records, monotone clock, ends with done)\n", *jsonl, len(recs))
	}
	if *trace != "" {
		n, err := lintTrace(read(*trace))
		if err != nil {
			fail(*trace, err)
		}
		fmt.Printf("%s: ok (%d trace events, every slice on a named lane)\n", *trace, n)
	}
	if *spans != "" {
		data := read(*spans)
		ss, err := obs.LintSpans(data)
		if err != nil {
			fail(*spans, err)
		}
		fmt.Printf("%s: ok (%d spans, trace %s, acyclic and nested)\n",
			*spans, len(ss), ss[0].TraceID)
	}
}

// lintTrace decodes a Chrome trace_event export into gpu.ChromeTrace and
// checks what its writers promise: at least one event, displayTimeUnit
// "ms", only metadata (M) and complete (X) events, no negative dur, and a
// thread_name record for every (pid, tid) a slice lands on. It returns
// the event count.
func lintTrace(data []byte) (int, error) {
	var tf gpu.ChromeTrace
	if err := json.Unmarshal(data, &tf); err != nil {
		return 0, err
	}
	if tf.DisplayTimeUnit != "ms" {
		return 0, fmt.Errorf("displayTimeUnit %q, want \"ms\"", tf.DisplayTimeUnit)
	}
	named := map[[2]int]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			named[[2]int{ev.Pid, ev.Tid}] = true
		}
	}
	for i, ev := range tf.TraceEvents {
		switch {
		case ev.Ph != "M" && ev.Ph != "X":
			return 0, fmt.Errorf("event %d (%q): ph %q, want M or X", i, ev.Name, ev.Ph)
		case ev.Dur < 0:
			return 0, fmt.Errorf("event %d (%q): negative dur %g", i, ev.Name, ev.Dur)
		case ev.Ph == "X" && !named[[2]int{ev.Pid, ev.Tid}]:
			return 0, fmt.Errorf("event %d (%q): pid %d tid %d has no thread_name record", i, ev.Name, ev.Pid, ev.Tid)
		}
	}
	if len(tf.TraceEvents) == 0 {
		return 0, fmt.Errorf("no traceEvents")
	}
	return len(tf.TraceEvents), nil
}

func read(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(path, err)
	}
	return data
}

func fail(path string, err error) {
	fmt.Fprintf(os.Stderr, "obslint: %s: %v\n", path, err)
	os.Exit(1)
}
