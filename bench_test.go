package cagmres

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, each wrapping the corresponding driver in
// internal/bench at a laptop-sized scale. Run them all with
//
//	go test -bench=. -benchmem
//
// and regenerate the full printed tables with cmd/experiments. Per-kernel
// micro-benchmarks live next to their packages (internal/la,
// internal/sparse, internal/dist, internal/ortho).

import (
	"testing"

	"cagmres/internal/bench"
)

// benchConfig is the shared laptop-scale configuration.
func benchConfig() bench.Config {
	return bench.Config{Scale: 0.004, MaxDevices: 3, MaxRestarts: 4}
}

// BenchmarkFig3GMRESDevices times the GMRES platform comparison (CPU vs
// 1..3 simulated GPUs, Figure 3).
func BenchmarkFig3GMRESDevices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig3(benchConfig())
	}
}

// BenchmarkFig6SurfaceToVolume sweeps the MPK surface-to-volume ratios
// (Figure 6).
func BenchmarkFig6SurfaceToVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig6(benchConfig())
	}
}

// BenchmarkFig7CommVolume sweeps the MPK communication volumes (Figure 7).
func BenchmarkFig7CommVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7(benchConfig())
	}
}

// BenchmarkFig8MPK times the matrix powers kernel generating 100 basis
// vectors across s = 1..10 (Figure 8).
func BenchmarkFig8MPK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig8(benchConfig())
	}
}

// BenchmarkFig10Properties regenerates the TSQR strategy property table
// with measured transfer counts (Figure 10).
func BenchmarkFig10Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(benchConfig())
	}
}

// BenchmarkFig11TSQR measures TSQR effective throughput for all five
// strategies on 1..3 devices (Figure 11c).
func BenchmarkFig11TSQR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig11c(benchConfig())
	}
}

// BenchmarkFig13OrthoErrors runs the TSQR error study inside CA-GMRES
// (Figure 13).
func BenchmarkFig13OrthoErrors(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxRestarts = 2
	for i := 0; i < b.N; i++ {
		bench.Fig13(cfg)
	}
}

// BenchmarkFig14CAGMRES regenerates the main CA-GMRES vs GMRES table
// (Figure 14).
func BenchmarkFig14CAGMRES(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.002
	for i := 0; i < b.N; i++ {
		bench.Fig14(cfg)
	}
}

// BenchmarkFig15Summary regenerates the normalized four-matrix summary
// (Figure 15).
func BenchmarkFig15Summary(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.002
	for i := 0; i < b.N; i++ {
		bench.Fig15(cfg)
	}
}
