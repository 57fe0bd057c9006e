package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// suite is the document of a whole-benchmark run: every workload, each
// in child processes of its own so that heap, caches and peak RSS do not
// leak from one workload into the next.
type suite struct {
	Schema    int              `json:"schema"`
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Runs      int              `json:"runs"`
	Workloads []*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Summary holds, per end-to-end metric, the median and quartiles
	// over the untraced runs (seeds Seed, Seed+1, ...).
	Summary   map[string]summary `json:"summary"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Runs      []*report          `json:"runs"`
	Traced    *report            `json:"traced,omitempty"`
}

type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func summarize(reports []*report) map[string]summary {
	out := make(map[string]summary, len(endToEnd))
	for _, d := range endToEnd {
		s := summary{Unit: d.Unit}
		for _, r := range reports {
			if v := r.Metrics[d.Name].Value; v != nil {
				s.Values = append(s.Values, *v)
			}
		}
		s.Median = median(s.Values)
		s.Q1, s.Q3 = quartiles(s.Values)
		out[d.Name] = s
	}
	return out
}

// runChild runs one workload in a child process (this binary again) and
// reads back the full document it wrote.
func runChild(ctx context.Context, name string, cfg runConfig) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg, file := "0", name+".json"
	if cfg.Trace {
		traceArg, file = "1", name+".traced.json"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.Itoa(cfg.Seconds), "-trace", traceArg, "-out", cfg.OutDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to end
		return nil, fmt.Errorf("%s seed %d: %w", name, cfg.Seed, err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.OutDir, file))
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &rep, nil
}

func runSuite(ctx context.Context, cfg runConfig, runs int) (*suite, error) {
	doc := &suite{Schema: 1, Env: currentEnvironment(), Seed: cfg.Seed, Seconds: cfg.Seconds, Runs: runs}
	for _, w := range workloads {
		sw := &suiteWorkload{Name: w.Name, Why: w.Why}
		for i := 0; i < runs; i++ {
			c := cfg
			c.Seed, c.Trace = cfg.Seed+int64(i), false
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d\n", w.Name, c.Seed)
			rep, err := runChild(ctx, w.Name, c)
			if err != nil {
				return nil, err
			}
			sw.Runs = append(sw.Runs, rep)
			sw.Attempted += rep.Attempted
			sw.Failed += rep.Failed
		}
		sw.Summary = summarize(sw.Runs)
		if cfg.Trace {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced\n", w.Name)
			rep, err := runChild(ctx, w.Name, cfg)
			if err != nil {
				return nil, err
			}
			sw.Traced = rep
		}
		doc.Workloads = append(doc.Workloads, sw)
	}
	return doc, nil
}

func (s *suite) write(path string, also io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if also != nil {
		_, err = also.Write(data)
	}
	return err
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed"
)

// judge compares one end-to-end metric of two sides. worse is the change
// of the median in the metric's worse direction, as a share of the old
// median. Where either side's run-to-run spread exceeds the bound, the
// comparison cannot resolve a change of the bound's size: the row is
// unresolved unless every new run reads better than every old run.
func judge(d metricDef, old, new summary) (worse float64, verdict string) {
	if old.Median != 0 {
		worse = (new.Median - old.Median) / math.Abs(old.Median)
	}
	if d.Better == "higher" {
		worse = -worse
	}
	if math.Max(old.spread(), new.spread()) > d.Bound {
		if everyRunBetter(d, old.Values, new.Values) {
			return worse, verdictBetter
		}
		return worse, verdictUnresolved
	}
	if worse > d.Bound {
		return worse, verdictRegression
	}
	return worse, verdictOK
}

func everyRunBetter(d metricDef, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, n := range new {
		for _, o := range old {
			if (d.Better == "lower" && n >= o) || (d.Better == "higher" && n <= o) {
				return false
			}
		}
	}
	return true
}

// tally counts the rows of a comparison by verdict.
type tally struct{ regressions, unresolved, changed int }

func (t tally) String() string {
	return fmt.Sprintf("%d regressions, %d unresolved, %d exact metrics changed", t.regressions, t.unresolved, t.changed)
}

// compareSuites prints one row per (end-to-end metric, workload), one
// for a higher failed share, and one per exact per-layer metric that
// differs when both sides carry a traced run. Bounds are those of
// BENCHMARK.json (a test keeps metrics.go identical to it).
func compareSuites(old, new *suite, out io.Writer) tally {
	var t tally
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworse by\tbound\tspread old/new\tverdict")
	for _, nw := range new.Workloads {
		var ow *suiteWorkload
		for _, w := range old.Workloads {
			if w.Name == nw.Name {
				ow = w
			}
		}
		if ow == nil {
			fmt.Fprintf(tw, "%s\t(not in old)\t\t\t\t\t\t\n", nw.Name)
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.Summary[d.Name], nw.Summary[d.Name]
			worse, verdict := judge(d, o, n)
			switch verdict {
			case verdictRegression:
				t.regressions++
			case verdictUnresolved:
				t.unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.0f%%\t%.1f%% / %.1f%%\t%s\n",
				nw.Name, d.Name, o.Median, d.Unit, n.Median, d.Unit, 100*worse, 100*d.Bound,
				100*o.spread(), 100*n.spread(), verdict)
		}
		oShare, nShare := failedShare(ow), failedShare(nw)
		verdict := verdictOK
		if nShare > oShare {
			verdict = verdictRegression
			t.regressions++
		}
		fmt.Fprintf(tw, "%s\tfailed_ops_share\t%.4g\t%.4g\t\t0\t\t%s\n", nw.Name, oShare, nShare, verdict)
		if ow.Traced == nil || nw.Traced == nil {
			continue
		}
		for _, d := range perLayer {
			o, n := ow.Traced.Metrics[d.Name].Value, nw.Traced.Metrics[d.Name].Value
			if !d.exact || (o == nil && n == nil) {
				continue
			}
			if o == nil || n == nil || *o != *n {
				t.changed++
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\texact\t\t%s\n", nw.Name, d.Name, show(o), show(n), verdictChanged)
			}
		}
	}
	tw.Flush()
	return t
}

func show(v *float64) string {
	if v == nil {
		return "null"
	}
	return strconv.FormatFloat(*v, 'g', -1, 64)
}

func failedShare(w *suiteWorkload) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

func compareFiles(oldPath, newPath string) error {
	old, err := readSuite(oldPath)
	if err != nil {
		return err
	}
	new, err := readSuite(newPath)
	if err != nil {
		return err
	}
	t := compareSuites(old, new, os.Stdout)
	fmt.Println(t)
	if t.regressions > 0 {
		return errors.New("regression")
	}
	return nil
}

// runSelfcheck is the repeatability criterion: two suite runs of the
// same code on the same seeds must agree within the benchmark's own
// bounds on every row, resolve every row, and repeat every exact metric.
func runSelfcheck(ctx context.Context, cfg runConfig, runs int) error {
	cfg.Trace = true
	var docs [2]*suite
	for i := range docs {
		doc, err := runSuite(ctx, cfg, runs)
		if err != nil {
			return err
		}
		if err := doc.write(filepath.Join(cfg.OutDir, fmt.Sprintf("selfcheck-%d.json", i+1)), nil); err != nil {
			return err
		}
		docs[i] = doc
	}
	t := compareSuites(docs[0], docs[1], os.Stdout)
	fmt.Println(t)
	if t != (tally{}) {
		return errors.New("selfcheck: the two sets of runs do not agree")
	}
	return nil
}
