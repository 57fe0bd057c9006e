package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig is what the driver passes to one run.
type runConfig struct {
	Seed    int64
	Seconds int
	Trace   bool
	OutDir  string
}

func (c runConfig) duration() time.Duration { return time.Duration(c.Seconds) * time.Second }

// environment records where a document was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			env.Commit += "-dirty"
		}
	}
	return env
}

// report is the document one run of one workload produces. Its schema
// is fixed: every declared metric of the run's kind is present, null
// where the workload never reaches the rung.
type report struct {
	Schema   int         `json:"schema"`
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Seed     int64       `json:"seed"`
	Seconds  int         `json:"seconds"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`

	Ops              int      `json:"ops"`
	TailPct          int      `json:"tail_pct"`
	Attempted        int      `json:"attempted"`
	Failed           int      `json:"failed"`
	FailedOpsShare   float64  `json:"failed_ops_share"`
	Nondeterministic bool     `json:"nondeterministic"`
	Correct          bool     `json:"correct"`
	Failures         []string `json:"failures,omitempty"`

	Metrics map[string]value `json:"metrics"`
	// OpSecondsRaw is every succeeded op as measured, in order, before
	// the fastest repeat of each list position is kept.
	OpSecondsRaw []float64            `json:"op_seconds_raw"`
	Layers       map[string]layerTime `json:"layers,omitempty"`
	TraceFile    string               `json:"trace_file,omitempty"`

	metrics *metricSet
	outDir  string
	spans   []span
}

func newReport(w workload, cfg runConfig) *report {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	return &report{Schema: 1, Workload: w.Name, Why: w.Why, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Trace: cfg.Trace, Env: currentEnvironment(), TailPct: w.tailPct(),
		metrics: newMetricSet(defs), outDir: cfg.OutDir}
}

const maxFailuresListed = 5

// finish closes an untraced run. extra are correctness failures beyond
// failed ops (the run is then not correct even with no op failed).
func (r *report) finish(w *window, failures []string, nondeterministic bool, extra ...string) {
	r.Ops, r.Attempted, r.Failed = w.ops(), w.attempted, w.failed
	if w.attempted > 0 {
		r.FailedOpsShare = float64(w.failed) / float64(w.attempted)
	}
	r.Nondeterministic = nondeterministic
	if nondeterministic {
		extra = append(extra, "iteration counts differ between ops on the same input")
	}
	r.Correct = w.failed == 0 && w.attempted > 0 && len(extra) == 0
	r.Failures = append(extra, failures...)
	if len(r.Failures) > maxFailuresListed {
		r.Failures = r.Failures[:maxFailuresListed]
	}
	r.Metrics, r.OpSecondsRaw = r.metrics.document(), w.raw
}

// finishTraced closes a traced run: it also summarizes the spans by
// layer and keeps them for write.
func (r *report) finishTraced(tr *tracer, w *window, failures []string, nondeterministic bool, extra ...string) {
	r.finish(w, failures, nondeterministic, extra...)
	r.spans = tr.finished()
	r.Layers = summarizeLayers(r.spans)
	r.TraceFile = filepath.Join(r.outDir, r.Workload+".trace.json")
}

// write stores the full document, and the Chrome trace of a traced run,
// under the output directory.
func (r *report) write() error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Trace {
		name = r.Workload + ".traced.json"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.Trace {
		return writeChromeTrace(r.TraceFile, r.Workload, r.spans)
	}
	return nil
}

// resultLine is the driver's contract: one JSON object with exactly
// these keys, every metric a number (0 for a rung never reached).
func (r *report) resultLine() string {
	type number struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]number, len(r.Metrics))
	for name, v := range r.Metrics {
		n := number{Unit: v.Unit}
		if v.Value != nil {
			n.Value = *v.Value
		}
		metrics[name] = n
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]number `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(fmt.Sprintf("benchmark: result line: %v", err)) // NaN or Inf in a metric is a bug here
	}
	return string(line)
}
