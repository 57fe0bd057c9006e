package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"cagmres/internal/core"
)

// The same seed must give byte-identical inputs, another seed other
// inputs: right-hand sides and the serve-mixed request list.
func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := rhsSet(100, 3, 1), rhsSet(100, 3, 1), rhsSet(100, 3, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("rhsSet differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("rhsSet is the same for seeds 1 and 2")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("right-hand sides of one set are not distinct")
	}

	flatten := func(list []request) []byte {
		var buf bytes.Buffer
		for _, r := range list {
			buf.Write(r.Body)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	mm := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n"
	l1, l2, l3 := serveRequestList(1, mm), serveRequestList(1, mm), serveRequestList(2, mm)
	if !bytes.Equal(flatten(l1), flatten(l2)) {
		t.Error("request list differs between two calls with one seed")
	}
	if bytes.Equal(flatten(l1), flatten(l3)) {
		t.Error("request list is the same for seeds 1 and 2")
	}
}

// The request list has the same mix in the same order whatever the seed,
// so that every seed overlaps the same requests.
func TestRequestMixIsTheSameForEverySeed(t *testing.T) {
	kinds := func(list []request) (out []string) {
		for _, r := range list {
			out = append(out, fmt.Sprintf("%s/%v/%v", r.combo(), r.Inline, r.IncludeX))
		}
		return out
	}
	for seed := int64(1); seed <= 3; seed++ {
		list := serveRequestList(seed, "x")
		if len(list) != serveRequests {
			t.Fatalf("list length %d, want %d", len(list), serveRequests)
		}
		if !reflect.DeepEqual(kinds(list), kinds(serveRequestList(7, "x"))) {
			t.Errorf("seed %d orders the requests differently from seed 7", seed)
		}
		var gmres, inline, includeX int
		keys := map[int]int{}
		for _, r := range list {
			if r.Solver == "gmres" {
				gmres++
			}
			if r.IncludeX {
				includeX++
			}
			if r.Inline {
				inline++
			} else {
				keys[r.Key]++
			}
			var req map[string]any
			if err := json.Unmarshal(r.Body, &req); err != nil {
				t.Fatalf("body does not parse: %v", err)
			}
			if req["wait"] != true || req["solver"] != r.Solver {
				t.Fatalf("body %s does not match request %+v", r.Body, r)
			}
		}
		if gmres != 5 || inline != 4 || includeX != 2 || len(keys) != serveKeys {
			t.Errorf("seed %d: gmres=%d inline=%d include_x=%d keys=%v", seed, gmres, inline, includeX, keys)
		}
		for k, n := range keys {
			if n != 2 {
				t.Errorf("seed %d: key %d appears %d times", seed, k, n)
			}
		}
	}
}

// Every time figure of a window keeps, of the repeats of one list
// position, the fastest.
func TestWindowKeepsTheFastestRepeatOfEveryPosition(t *testing.T) {
	got := fastestAt([]float64{3, 5, 2, 7, 4, 9}, []int{0, 1, 0, 1, 2, 2})
	if want := []float64{2, 5, 2, 5, 4, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("fastestAt = %v, want %v", got, want)
	}

	// Two passes over two right-hand sides, one after another.
	sw := &solveWindow{position: []int{0, 1, 0, 1}, results: []opResult{
		{seconds: 1.0, cpuS: 0.9}, {seconds: 2.5, cpuS: 2.0}, {seconds: 1.5, cpuS: 0.8}, {seconds: 2.0, cpuS: 2.2}}}
	sw.settle()
	if !reflect.DeepEqual(sw.durations, []float64{1, 2, 1, 2}) || sw.wall != 6 || sw.cpu != 2*(0.8+2.0) {
		t.Errorf("solve window: durations %v wall %g cpu %g", sw.durations, sw.wall, sw.cpu)
	}

	// Two passes over a list of four requests sent two at a time: a step
	// counts at its fastest repeat like an op; a failed request has no
	// duration.
	w := &serveWindow{stepAt: []int{0, 2, 0, 2},
		stepWall: []float64{3, 2, 2.5, 2.25}, stepCPU: []float64{2.5, 2, 2.75, 1.5}}
	failures := w.settle([]serveOp{
		{index: 0, seconds: 1.5}, {index: 1, seconds: 3}, {index: 2, seconds: 2}, {index: 3, seconds: 1},
		{index: 4, seconds: 1.0}, {index: 5, failure: "HTTP 500"}, {index: 6, seconds: 2.25}, {index: 7, seconds: 1.5}}, 4)
	if !reflect.DeepEqual(w.durations, []float64{1, 3, 2, 1, 1, 2, 1}) || w.wall != 2*(2.5+2) || w.cpu != 2*(2.5+1.5) ||
		w.attempted != 8 || w.failed != 1 || len(failures) != 1 {
		t.Errorf("serve window: %+v, failures %v", w.window, failures)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is what the driver reads; metrics.go and workloads.go
// are what the program emits. They must say the same thing, inside the
// driver's limits.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].exact = false
		}
		return out
	}
	if !reflect.DeepEqual(bf.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", bf.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(bf.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs from metrics.go")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file %+v, program %s: %s", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s breaks the driver's limits", w.Name)
		}
		if (w.MinOps-10)*100 < w.tailPct()*w.MinOps || w.MinOps < 21 {
			t.Errorf("workload %s: %d ops do not leave 10 beyond p%d", w.Name, w.MinOps, w.tailPct())
		}
		if list := max(w.RHS, 1); (w.Serve && w.MinOps%serveRequests != 0) || w.MinOps%list != 0 {
			t.Errorf("workload %s: %d ops are not whole passes over its op list", w.Name, w.MinOps)
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(strip(endToEnd), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (%q) breaks the driver's limits or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g", d.Name, d.Bound)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("setup_s missing or too many metrics (%d, %d)", len(endToEnd), len(perLayer))
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func documentNames(m map[string]value) []string {
	var out []string
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// A real, tiny run of a solve workload in both modes: the document and
// the driver's result line carry every declared metric and nothing
// else, and the run is correct.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	tiny := workload{Name: "tiny", Why: "test", MinOps: 21, SetupReps: 1,
		Matrix: "dielFilterV2real", Scale: 0.0003, Ordering: core.KWay,
		Solver: "ca", M: 20, S: 5, Ortho: "CholQR", Cold: true, RHS: 2}
	for _, traced := range []bool{false, true} {
		cfg := runConfig{Seed: 3, Seconds: 0, Trace: traced, OutDir: t.TempDir()}
		rep, err := runSolve(tiny, cfg)
		if err != nil {
			t.Fatal(err)
		}
		minOps := tiny.MinOps
		if traced {
			minOps = 2 * tiny.RHS // a traced window is two passes over the right-hand sides
		}
		if !rep.Correct || rep.Failed != 0 || rep.Nondeterministic || rep.Ops < minOps {
			t.Errorf("traced=%v: correct=%v failed=%d nondeterministic=%v ops=%d: %v",
				traced, rep.Correct, rep.Failed, rep.Nondeterministic, rep.Ops, rep.Failures)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if got, want := documentNames(rep.Metrics), metricNames(defs); !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: document has %v, want %v", traced, got, want)
		}
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(rep.resultLine()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("result line: %v", err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
			t.Errorf("traced=%v: result line %s", traced, rep.resultLine())
		}
		for name, v := range line.Metrics {
			if v.Value == nil || v.Unit == "" {
				t.Errorf("result line metric %s is not a number with a unit", name)
			}
		}
		if !traced {
			for _, d := range endToEnd {
				if v := rep.Metrics[d.Name].Value; v == nil || *v <= 0 {
					t.Errorf("end-to-end metric %s is not positive", d.Name)
				}
			}
			continue
		}
		// This workload reaches every library rung; only the serving
		// layers and the MatrixMarket parse stay null.
		for _, d := range perLayer {
			layer, _, _ := strings.Cut(d.Name, ".")
			serving := layer == "sched" || layer == "server" || layer == "cluster" || layer == "obs" || d.Name == "sparse.mm_parse_s"
			if got := rep.Metrics[d.Name].Value == nil; got != serving {
				t.Errorf("per-layer metric %s: null=%v, want %v", d.Name, got, serving)
			}
		}
		if err := rep.write(); err != nil {
			t.Fatal(err)
		}
		if rep.Layers["core.CAGMRES"].Calls == 0 || rep.Layers["op"].SelfS >= rep.Layers["op"].TotalS {
			t.Errorf("layer summary: %+v", rep.Layers)
		}
	}
}

// Every workload's documents have the fixed schema by construction.
func TestEveryWorkloadDeclaresEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep := newReport(w, runConfig{Trace: traced})
			rep.finish(&window{attempted: 1, durations: []float64{1}}, nil, false)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !reflect.DeepEqual(documentNames(rep.Metrics), metricNames(defs)) {
				t.Errorf("%s traced=%v: wrong metric names", w.Name, traced)
			}
		}
	}
}

func TestSelfTimeIsDurationMinusCoveredChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: ms(25), End: ms(45)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(10), 4: ms(30), 5: ms(20)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	layers := summarizeLayers(spans)
	if l := layers["parent"]; l.Calls != 1 || l.TotalS != 0.1 || l.SelfS != 0.05 {
		t.Errorf("parent layer %+v", l)
	}
}

func TestTracerRecordsOnlyWhenPresent(t *testing.T) {
	var none *tracer
	none.end(none.start("x", 0, 0, 0)) // must not panic
	tr := newTracer()
	id := tr.start("op", 0, 1, 0)
	child := tr.start("call", id, 1, 0)
	tr.end(child)
	open := tr.start("never closed", id, 1, 0)
	tr.end(id)
	spans := tr.finished()
	if len(spans) != 2 || spans[1].Parent != id || open != 3 {
		t.Errorf("spans %+v", spans)
	}
}

func TestTracedOpsCoverEveryInputOnBothSides(t *testing.T) {
	for _, period := range []int{1, 2, 7, 20, 32} {
		for k := 0; k < period; k++ {
			if tracedOp(k, period) == tracedOp(k+period, period) {
				t.Errorf("period %d: input %d is on the same side in both periods", period, k)
			}
		}
	}
}

func TestTraceOverheadPairsOpsOnTheSameInput(t *testing.T) {
	const period = 4
	seconds := map[int]float64{}
	for i := 0; i < 4*period; i++ {
		seconds[i] = float64(1 + i%period) // inputs differ in cost
		if tracedOp(i, period) {
			seconds[i] *= 1.1
		}
	}
	delete(seconds, 5) // a failed op drops its pair
	if got := traceOverhead(seconds, period); got < 1.0999 || got > 1.1001 {
		t.Errorf("overhead %g, want 1.1", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %g %g", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three %g %g", q1, q3)
	}
	if p := percentile([]float64{4, 1, 3, 2}, 50); p != 2.5 {
		t.Errorf("median %g", p)
	}
}

func summaryOf(values ...float64) summary {
	s := summary{Values: values, Median: median(values)}
	s.Q1, s.Q3 = quartiles(values)
	return s
}

func TestJudgeAppliesBoundSpreadAndDirection(t *testing.T) {
	lowerM := metricDef{Name: "op_p50_s", Better: "lower", Bound: 0.10}
	higherM := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name     string
		d        metricDef
		old, new summary
		want     string
	}{
		{"within the bound", lowerM, summaryOf(1.00, 1.01, 1.02), summaryOf(1.05, 1.06, 1.07), verdictOK},
		{"slower than the bound", lowerM, summaryOf(1.00, 1.01, 1.02), summaryOf(1.20, 1.21, 1.22), verdictRegression},
		{"faster", lowerM, summaryOf(1.00, 1.01, 1.02), summaryOf(0.50, 0.51, 0.52), verdictOK},
		{"spread wider than the bound", lowerM, summaryOf(0.8, 1.0, 1.3), summaryOf(0.9, 1.2, 1.4), verdictUnresolved},
		{"wide spread but every run better", lowerM, summaryOf(1.0, 1.2, 1.5), summaryOf(0.5, 0.6, 0.7), verdictBetter},
		{"throughput fell", higherM, summaryOf(10, 10.1, 10.2), summaryOf(8, 8.1, 8.2), verdictRegression},
		{"throughput rose", higherM, summaryOf(10, 10.1, 10.2), summaryOf(12, 12.1, 12.2), verdictOK},
		{"single runs", lowerM, summaryOf(1.0), summaryOf(1.2), verdictRegression},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := judge(higherM, summaryOf(10), summaryOf(8)); worse < 0.199 || worse > 0.201 {
		t.Errorf("worse by %g, want 0.2", worse)
	}
}

func TestCompareCountsRegressionsFailuresAndExactChanges(t *testing.T) {
	mk := func(p50 float64, failed int, iters float64) *suite {
		run := newReport(workloads[0], runConfig{})
		for _, d := range endToEnd {
			run.metrics.set(d.Name, 1)
		}
		run.metrics.set("op_p50_s", p50)
		run.finish(&window{attempted: 10, failed: failed, durations: make([]float64, 10-failed)}, nil, false)
		traced := newReport(workloads[0], runConfig{Trace: true})
		traced.metrics.set("core.iters", iters)
		traced.finish(&window{attempted: 1, durations: []float64{1}}, nil, false)
		w := &suiteWorkload{Name: run.Workload, Runs: []*report{run}, Traced: traced,
			Summary: summarize([]*report{run}), Attempted: run.Attempted, Failed: run.Failed}
		return &suite{Workloads: []*suiteWorkload{w}}
	}
	base := mk(1, 0, 100)
	if got := compareSuites(base, mk(1.05, 0, 100), io.Discard); got != (tally{}) {
		t.Errorf("same: %+v", got)
	}
	if got := compareSuites(base, mk(1.5, 0, 100), io.Discard); got != (tally{regressions: 1}) {
		t.Errorf("slower: %+v", got)
	}
	if got := compareSuites(base, mk(1, 1, 100), io.Discard); got != (tally{regressions: 1}) {
		t.Errorf("more failures: %+v", got)
	}
	var out bytes.Buffer
	if got := compareSuites(base, mk(1, 0, 101), &out); got != (tally{changed: 1}) || !strings.Contains(out.String(), "core.iters") {
		t.Errorf("exact metric changed: %+v\n%s", got, out.String())
	}
}
