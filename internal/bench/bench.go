// Package bench regenerates every table and figure of the paper's
// evaluation (Figures 3, 6–8, 10, 11, 13–15) and the studies this
// repository adds on the simulated multi-GPU runtime. Figures is the one
// list of them: each entry runs its drivers, prints paper-style tables to
// Config.Out and returns its rows as named CSV tables. cmd/experiments,
// the repository-root BenchmarkFigures and the golden test over
// testdata/figs all iterate it.
//
// Absolute numbers come from the calibrated cost model, not the authors'
// testbed, so they are not expected to match the paper digit-for-digit;
// the shapes — who wins, by what factor, where the crossovers in s and
// n_g fall — are the reproduction targets and are asserted by the tests
// in this package.
package bench

import (
	"fmt"
	"io"

	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
)

// Config controls a benchmark run.
type Config struct {
	// Scale multiplies the published matrix dimensions (1.0 = paper
	// size). The default CLI uses 0.02 to stay laptop-sized.
	Scale float64
	// MaxDevices is the largest simulated GPU count (the paper has 3).
	MaxDevices int
	// Profile is the machine description (cost model + interconnect
	// topology) of every context the drivers create (default gpu.M2090();
	// the cmd/experiments -profile/-topology flags set it). The classic
	// figure drivers were calibrated against the paper's machine; under a
	// different profile their tables answer "this figure, on that box"
	// rather than reproducing the publication.
	Profile gpu.Profile
	// Out receives the printed tables; nil discards them.
	Out io.Writer
	// MaxRestarts caps solver restart loops so sweeps stay bounded.
	MaxRestarts int
	// Trace, when non-nil, enables event tracing on every simulated
	// context the drivers create and collects the rings for export
	// (cmd/experiments -traceout).
	Trace *TraceCollector
	// Precision, when non-empty, runs every CA-GMRES arm of the figure
	// drivers under that precision mode ("fp64", "mixed", "adaptive") —
	// the cmd/experiments -precision flag. The classic figures were
	// calibrated at full double, so a narrow mode answers "this figure,
	// at that width" the way Profile answers "this figure, on that box".
	// Plain-GMRES baseline arms always stay fp64 (the solver rejects
	// anything else), and the default empty string leaves every driver
	// and golden bit-identical to the pre-precision releases.
	Precision string
}

// defaults fills unset fields.
func (c *Config) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.02
	}
	if c.MaxDevices == 0 {
		c.MaxDevices = 3
	}
	if c.Profile == (gpu.Profile{}) {
		c.Profile = gpu.M2090()
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 40
	}
}

// newContext creates one simulated device context for a driver,
// registering it with the trace collector when tracing is on. Every
// driver goes through here so -traceout sees the whole run.
func (c *Config) newContext(ng int, p gpu.Profile) *gpu.Context {
	ctx := gpu.NewContext(ng, p)
	if c.Trace != nil {
		c.Trace.attach(ctx)
	}
	return ctx
}

func (c *Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// ms converts modeled seconds to milliseconds for table output.
func ms(sec float64) float64 { return sec * 1e3 }

// The published matrices span 62k..3.5M rows; at a fixed Scale that
// would make cant degenerate while nlpkkt dominates the runtime. The
// drivers therefore normalize every generator to G3_circuit's published
// size so one Scale knob yields comparable problem sizes, preserving each
// matrix's structure (bandedness, density, indefiniteness) rather than
// its absolute row count.
const (
	cantBoost = 1585.0 / 62.0   // cant:       62k published rows
	dielBoost = 1585.0 / 1157.0 // dielFilter: 1.157M published rows
	kktBoost  = 1585.0 / 3542.0 // nlpkkt120:  3.542M published rows
)

func benchCant(scale float64) *matgen.Matrix { return matgen.Cant(scale * cantBoost) }
func benchG3(scale float64) *matgen.Matrix   { return matgen.G3Circuit(scale) }
func benchDiel(scale float64) *matgen.Matrix { return matgen.DielFilter(scale * dielBoost) }
func benchKKT(scale float64) *matgen.Matrix  { return matgen.NLPKKT(scale * kktBoost) }
