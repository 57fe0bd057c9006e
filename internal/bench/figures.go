package bench

// Table is one CSV a figure writes: the file's base name and its rows, a
// slice of flat structs (see WriteCSV).
type Table struct {
	Name string
	Rows any
}

// Figure is one entry of the registry: the name cmd/experiments -fig
// selects it by and the run that returns its tables.
type Figure struct {
	Name string
	Run  func(Config) []Table
}

// Figures is the one list of the figures and studies this package
// regenerates, in the order cmd/experiments -fig all runs them: the
// paper's evaluation (Figures 3, 6–8, 10, 11, 13–15), then the studies the
// repository adds.
var Figures = []Figure{
	{"3", func(c Config) []Table { return []Table{{"fig3", fig3(c)}} }},
	{"6", func(c Config) []Table { return []Table{{"fig6", fig6(c)}} }},
	{"7", func(c Config) []Table { return []Table{{"fig7", fig7(c)}} }},
	{"8", func(c Config) []Table { return []Table{{"fig8", fig8(c)}} }},
	{"10", func(c Config) []Table { return []Table{{"fig10", fig10(c)}} }},
	{"11", func(c Config) []Table {
		return []Table{{"fig11ab", fig11ab(c)}, {"fig11c", fig11c(c)}}
	}},
	{"13", func(c Config) []Table {
		r := fig13(c)
		return []Table{{"fig13_s20", r.Rows20}, {"fig13_s30", r.Rows30}, {"fig13_monomial", r.RowsMonomial}}
	}},
	{"14", func(c Config) []Table { return []Table{{"fig14", fig14(c)}} }},
	{"15", func(c Config) []Table { return []Table{{"fig15", fig15(c)}} }},
	{"overlap", func(c Config) []Table { return []Table{{"figoverlap", figOverlap(c)}} }},
	{"topology", func(c Config) []Table { return []Table{{"figtopology", figTopology(c)}} }},
	{"cluster", func(c Config) []Table { return []Table{{"figcluster", figCluster(c)}} }},
	{"overload", func(c Config) []Table { return []Table{{"figoverload", figOverload(c)}} }},
	{"serve", func(c Config) []Table { return []Table{{"figserve", figServe(c)}} }},
	{"precision", func(c Config) []Table { return []Table{{"figprecision", figPrecision(c)}} }},
	{"ablation", func(c Config) []Table {
		return []Table{
			{"ablation_latency", ablationLatency(c)},
			{"ablation_basis", ablationBasis(c)},
			{"ablation_precision", ablationPrecision(c)},
			{"ablation_fusedcgs", ablationFusedCGS(c)},
		}
	}},
}
