package obs

import (
	"math"
	"sort"
	"sync"

	"cagmres/internal/clock"
)

// SLO engine: per-priority latency/error objectives with rolling error
// budgets and multi-window burn rates — the Google SRE-workbook alerting
// shape (fast window catches cliffs, slow window catches slow leaks; the
// service is degraded only when both burn). Requests are classified by
// scheduler priority, judged good or bad (bad = failed, or finished over
// the class's latency target), and folded into per-class rolling windows.
//
// Burn rate is (bad fraction over a window) / (1 - objective): 1.0 means
// the class is consuming budget exactly as fast as the objective allows;
// anything sustained above that exhausts the budget early. The remaining
// error budget is measured over BudgetWindow.
//
// The engine reads the clock it is built with: a scheduler hands it its
// own, so a virtual-time run ages samples in virtual time.

// SLOClass is one objective: requests with Priority >= MinPriority (and
// not claimed by a stricter class) belong to it.
type SLOClass struct {
	// Name labels the class in metrics and reports ("interactive").
	Name string `json:"name"`
	// MinPriority is the lowest scheduler priority in the class. Classes
	// are matched highest MinPriority first.
	MinPriority int `json:"min_priority"`
	// LatencyTarget is the good/bad latency threshold in seconds.
	LatencyTarget float64 `json:"latency_target_seconds"`
	// Objective is the target good fraction (0.99 = "99% of requests
	// finish, within target, without error").
	Objective float64 `json:"objective"`
}

// DefaultSLOClasses is the shipped two-tier policy: priority >= 1 is
// interactive (1s @ 99%), everything else standard (5s @ 95%).
func DefaultSLOClasses() []SLOClass {
	return []SLOClass{
		{Name: "interactive", MinPriority: 1, LatencyTarget: 1.0, Objective: 0.99},
		{Name: "standard", MinPriority: math.MinInt32, LatencyTarget: 5.0, Objective: 0.95},
	}
}

// SLOConfig parameterizes the engine. Zero values take defaults.
type SLOConfig struct {
	Classes []SLOClass
	// BudgetWindow is the error-budget horizon in seconds (default 3600).
	BudgetWindow float64
	// FastWindow / SlowWindow are the burn-rate horizons in seconds
	// (defaults 300 / 3600).
	FastWindow float64
	SlowWindow float64
}

// degradeThreshold is the burn rate at which a class is degraded: both
// its fast and its slow window must reach it.
const degradeThreshold = 1.0

func (c SLOConfig) withDefaults() SLOConfig {
	if len(c.Classes) == 0 {
		c.Classes = DefaultSLOClasses()
	}
	if c.BudgetWindow <= 0 {
		c.BudgetWindow = 3600
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 300
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 3600
	}
	return c
}

// sloSample is one observed request.
type sloSample struct {
	t   float64 // engine clock at observation
	bad bool
}

// classState is one class's rolling sample window.
type classState struct {
	class   SLOClass
	samples []sloSample // ascending t
	low     int         // index of the oldest retained sample

	good Counter
	bad  Counter
	lat  Histogram
}

// SLOEngine folds request outcomes into rolling windows and exports the
// slo_* metric families. Safe for concurrent use.
type SLOEngine struct {
	mu      sync.Mutex
	cfg     SLOConfig
	clock   clock.Clock
	classes []classState // sorted by MinPriority descending (strictest first)
	lastT   float64

	budgetGauge map[string]Gauge
	burnFast    map[string]Gauge
	burnSlow    map[string]Gauge
}

var sloLatencyBuckets = ExpBuckets(0.001, 2, 24) // 1ms .. ~2.3h

// NewSLOEngine builds the engine on clk (nil is clock.Wall) and eagerly
// registers every slo_* family (reg may be nil for tests), so a fresh
// daemon's /metrics already shows the objectives before any traffic
// arrives.
func NewSLOEngine(reg *Registry, cfg SLOConfig, clk clock.Clock) *SLOEngine {
	cfg = cfg.withDefaults()
	if clk == nil {
		clk = clock.Wall
	}
	e := &SLOEngine{cfg: cfg, clock: clk,
		budgetGauge: map[string]Gauge{},
		burnFast:    map[string]Gauge{},
		burnSlow:    map[string]Gauge{},
	}
	classes := append([]SLOClass(nil), cfg.Classes...)
	sort.SliceStable(classes, func(i, j int) bool {
		return classes[i].MinPriority > classes[j].MinPriority
	})
	for _, c := range classes {
		cs := classState{class: c}
		if reg != nil {
			cs.good = reg.CounterL("slo_requests_total",
				"Requests judged against the SLO, by class and result.",
				L("class", c.Name, "result", "good"))
			cs.bad = reg.CounterL("slo_requests_total",
				"Requests judged against the SLO, by class and result.",
				L("class", c.Name, "result", "bad"))
			cs.lat = reg.HistogramL("slo_latency_seconds",
				"End-to-end request latency judged against the SLO.",
				sloLatencyBuckets, L("class", c.Name))
			reg.GaugeL("slo_latency_target_seconds",
				"Latency good/bad threshold per class.",
				L("class", c.Name)).Set(c.LatencyTarget)
			reg.GaugeL("slo_objective",
				"Target good fraction per class.",
				L("class", c.Name)).Set(c.Objective)
			e.budgetGauge[c.Name] = reg.GaugeL("slo_error_budget_remaining",
				"Fraction of the rolling error budget left (1 = untouched, <0 = overspent).",
				L("class", c.Name))
			e.budgetGauge[c.Name].Set(1)
			e.burnFast[c.Name] = reg.GaugeL("slo_burn_rate",
				"Error-budget burn rate over the fast/slow windows (1.0 = exactly on budget).",
				L("class", c.Name, "window", "fast"))
			e.burnSlow[c.Name] = reg.GaugeL("slo_burn_rate",
				"Error-budget burn rate over the fast/slow windows (1.0 = exactly on budget).",
				L("class", c.Name, "window", "slow"))
		}
		e.classes = append(e.classes, cs)
	}
	return e
}

// classFor picks the strictest class matching the priority. With the
// default classes every priority matches the catch-all; a custom config
// whose classes all have MinPriority > p falls back to the last
// (loosest) class rather than dropping the sample.
func (e *SLOEngine) classFor(p int) *classState {
	for i := range e.classes {
		if p >= e.classes[i].class.MinPriority {
			return &e.classes[i]
		}
	}
	return &e.classes[len(e.classes)-1]
}

// Observe records one finished request at the engine clock's now.
// Out-of-order times (concurrent finishers read the clock before taking
// the lock) are clamped forward to the engine's high-water mark so the
// windows stay sorted.
func (e *SLOEngine) Observe(priority int, latency float64, failed bool) {
	t := clock.Seconds(e.clock.Now())
	e.mu.Lock()
	if t < e.lastT {
		t = e.lastT
	}
	e.lastT = t
	cs := e.classFor(priority)
	bad := failed || latency > cs.class.LatencyTarget
	cs.samples = append(cs.samples, sloSample{t: t, bad: bad})
	// Compact: drop samples older than the widest window once the dead
	// prefix dominates, keeping Observe amortized O(1).
	widest := e.cfg.BudgetWindow
	if e.cfg.SlowWindow > widest {
		widest = e.cfg.SlowWindow
	}
	for cs.low < len(cs.samples) && cs.samples[cs.low].t < t-widest {
		cs.low++
	}
	if cs.low > 1024 && cs.low > len(cs.samples)/2 {
		cs.samples = append([]sloSample(nil), cs.samples[cs.low:]...)
		cs.low = 0
	}
	e.mu.Unlock()

	if cs.good != (Counter{}) {
		if bad {
			cs.bad.Inc()
		} else {
			cs.good.Inc()
		}
		cs.lat.Observe(latency)
	}
}

// window counts the (total, bad) samples of cs in (t-w, t].
func (cs *classState) window(t, w float64) (total, bad int) {
	lo := sort.Search(len(cs.samples), func(i int) bool {
		return cs.samples[i].t > t-w
	})
	if lo < cs.low {
		lo = cs.low
	}
	for _, s := range cs.samples[lo:] {
		if s.t > t {
			break
		}
		total++
		if s.bad {
			bad++
		}
	}
	return total, bad
}

// burn computes the burn rate over window w at time t: the bad fraction
// divided by the allowed bad fraction. An empty window burns nothing.
func (cs *classState) burn(t, w float64) float64 {
	total, bad := cs.window(t, w)
	if total == 0 {
		return 0
	}
	allowed := 1 - cs.class.Objective
	if allowed <= 0 {
		if bad > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return (float64(bad) / float64(total)) / allowed
}

// SLOClassReport is one class's current standing.
type SLOClassReport struct {
	Name          string  `json:"name"`
	MinPriority   int     `json:"min_priority"`
	LatencyTarget float64 `json:"latency_target_seconds"`
	Objective     float64 `json:"objective"`
	// Requests/Bad count the budget window.
	Requests int `json:"requests"`
	Bad      int `json:"bad"`
	// BudgetRemaining is the fraction of the rolling error budget left
	// (1 = untouched, 0 = spent, negative = overspent).
	BudgetRemaining float64 `json:"error_budget_remaining"`
	BurnFast        float64 `json:"burn_rate_fast"`
	BurnSlow        float64 `json:"burn_rate_slow"`
	Degraded        bool    `json:"degraded"`
}

// SLOReport is the /slo endpoint body.
type SLOReport struct {
	Time             float64          `json:"time"`
	BudgetWindow     float64          `json:"budget_window_seconds"`
	FastWindow       float64          `json:"fast_window_seconds"`
	SlowWindow       float64          `json:"slow_window_seconds"`
	DegradeThreshold float64          `json:"degrade_threshold"`
	Classes          []SLOClassReport `json:"classes"`
	Degraded         bool             `json:"degraded"`
}

// Report evaluates every class at the engine clock's now and refreshes
// the slo_* gauges (budget remaining, burn rates) as a side effect, so
// scraping /metrics after /slo sees consistent numbers.
func (e *SLOEngine) Report() SLOReport {
	t := clock.Seconds(e.clock.Now())
	e.mu.Lock()
	if t < e.lastT {
		t = e.lastT
	}
	rep := SLOReport{
		Time:             t,
		BudgetWindow:     e.cfg.BudgetWindow,
		FastWindow:       e.cfg.FastWindow,
		SlowWindow:       e.cfg.SlowWindow,
		DegradeThreshold: degradeThreshold,
	}
	type gaugeSet struct {
		name               string
		budget, fast, slow float64
	}
	var sets []gaugeSet
	for i := range e.classes {
		cs := &e.classes[i]
		total, bad := cs.window(t, e.cfg.BudgetWindow)
		allowed := (1 - cs.class.Objective) * float64(total)
		budget := 1.0
		if allowed > 0 {
			budget = 1 - float64(bad)/allowed
		} else if bad > 0 {
			budget = math.Inf(-1)
		}
		cr := SLOClassReport{
			Name:            cs.class.Name,
			MinPriority:     cs.class.MinPriority,
			LatencyTarget:   cs.class.LatencyTarget,
			Objective:       cs.class.Objective,
			Requests:        total,
			Bad:             bad,
			BudgetRemaining: budget,
			BurnFast:        cs.burn(t, e.cfg.FastWindow),
			BurnSlow:        cs.burn(t, e.cfg.SlowWindow),
		}
		cr.Degraded = cr.BurnFast >= degradeThreshold &&
			cr.BurnSlow >= degradeThreshold
		if cr.Degraded {
			rep.Degraded = true
		}
		rep.Classes = append(rep.Classes, cr)
		sets = append(sets, gaugeSet{cs.class.Name, budget, cr.BurnFast, cr.BurnSlow})
	}
	e.mu.Unlock()

	for _, s := range sets {
		if g, ok := e.budgetGauge[s.name]; ok {
			g.Set(s.budget)
			e.burnFast[s.name].Set(s.fast)
			e.burnSlow[s.name].Set(s.slow)
		}
	}
	return rep
}
