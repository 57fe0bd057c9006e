package cagmres

// Benchmark harness: one testing.B sub-benchmark per entry of
// bench.Figures — the paper's tables and figures and the repository's
// added studies — each at one shared laptop-sized scale. Run them all with
//
//	go test -run '^$' -bench=Figures -benchmem
//
// or one with -bench 'Figures/14', and regenerate the full printed tables
// with cmd/experiments. Per-kernel micro-benchmarks live next to their
// packages (internal/la, internal/sparse, internal/dist, internal/ortho).

import (
	"testing"

	"cagmres/internal/bench"
)

func BenchmarkFigures(b *testing.B) {
	cfg := bench.Config{Scale: 0.004, MaxDevices: 3, MaxRestarts: 4}
	for _, fig := range bench.Figures {
		b.Run(fig.Name, func(b *testing.B) {
			for b.Loop() {
				fig.Run(cfg)
			}
		})
	}
}
