package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a config small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.003, MaxDevices: 3, MaxRestarts: 6}
}

// ratio is the MaxRatio of one Figure 6 sample, -1 when it is missing.
func ratio(rows []fig6Row, matrix, ordering string, s int) float64 {
	for _, row := range rows {
		if row.Matrix == matrix && row.Ordering == ordering && row.S == s {
			return row.MaxRatio
		}
	}
	return -1
}

// volume is one Figure 7 sample, -1s when it is missing.
func volume(rows []fig7Row, matrix, ordering string, s int) (int, float64) {
	for _, row := range rows {
		if row.Matrix == matrix && row.Ordering == ordering && row.S == s {
			return row.Volume, row.RelativeToSpMV
		}
	}
	return -1, -1
}

// fig8Sample is one Figure 8 sample.
func fig8Sample(rows []fig8Row, matrix string, s int) (fig8Row, bool) {
	for _, row := range rows {
		if row.Matrix == matrix && row.S == s {
			return row, true
		}
	}
	return fig8Row{}, false
}

// findStrategy returns the row of the named strategy (matching with or
// without the 2x prefix).
func findStrategy(rows []fig13Row, name string) (fig13Row, bool) {
	for _, r := range rows {
		if r.Strategy == name || r.Strategy == "2x"+name {
			return r, true
		}
	}
	return fig13Row{}, false
}

func TestFig6Shapes(t *testing.T) {
	res := fig6(tiny())
	if len(res) != 2*3*10 {
		t.Fatalf("rows = %d", len(res))
	}
	// Ratios never shrink with s.
	for _, mtx := range []string{"cant", "G3_circuit"} {
		for _, o := range orderings {
			ord := o.label
			for s := 2; s <= 10; s++ {
				prev := ratio(res, mtx, ord, s-1)
				cur := ratio(res, mtx, ord, s)
				if prev < 0 || cur < 0 {
					t.Fatalf("%s/%s missing samples", mtx, ord)
				}
				if cur < prev-1e-12 {
					t.Fatalf("%s/%s: ratio shrank at s=%d: %v -> %v", mtx, ord, s, prev, cur)
				}
			}
		}
	}
	// The banded cant grows roughly linearly under its natural ordering
	// (Figure 6's "nice" case): ratio(4)/ratio(1) within a factor band
	// around 4.
	growth := ratio(res, "cant", "NAT", 4) / ratio(res, "cant", "NAT", 1)
	if growth < 2 || growth > 6 {
		t.Fatalf("cant/NAT growth ratio(4)/ratio(1) = %v, want ~4", growth)
	}
	// Shuffled G3 under natural ordering saturates immediately ("the
	// natural ordering leads to the full index set even for small s"):
	// the s=1 ratio is already within 25%% of the s=8 ratio.
	if ratio(res, "G3_circuit", "NAT", 1) < 0.75*ratio(res, "G3_circuit", "NAT", 8) {
		t.Fatalf("G3/NAT should saturate at s=1: %v vs %v",
			ratio(res, "G3_circuit", "NAT", 1), ratio(res, "G3_circuit", "NAT", 8))
	}
	// Reordering dramatically reduces G3's ratio (the headline of Fig 6).
	for _, ord := range []string{"RCM", "KWY"} {
		if ratio(res, "G3_circuit", ord, 4)*2 > ratio(res, "G3_circuit", "NAT", 4) {
			t.Fatalf("%s %v does not clearly beat NAT %v on G3",
				ord, ratio(res, "G3_circuit", ord, 4), ratio(res, "G3_circuit", "NAT", 4))
		}
	}
	// And cant under any ordering beats shuffled-natural G3 at moderate s.
	if ratio(res, "cant", "NAT", 3) >= ratio(res, "G3_circuit", "NAT", 3) {
		t.Fatalf("banded cant %v should be below shuffled G3 %v",
			ratio(res, "cant", "NAT", 3), ratio(res, "G3_circuit", "NAT", 3))
	}
}

func TestFig7Shapes(t *testing.T) {
	res := fig7(tiny())
	// For the banded cant under RCM, the total volume must stay within a
	// small factor of the SpMV volume across s (linear halo growth).
	for s := 2; s <= 10; s++ {
		_, rel := volume(res, "cant", "RCM", s)
		if rel < 0 {
			t.Fatal("missing sample")
		}
		if rel > 4 {
			t.Fatalf("cant/RCM s=%d: volume ratio %v exploded", s, rel)
		}
	}
	// Volumes are positive everywhere.
	for _, row := range res {
		if row.Volume <= 0 {
			t.Fatalf("non-positive volume: %+v", row)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	res := fig8(tiny())
	for _, mtx := range []string{"cant", "G3_circuit"} {
		r1, ok1 := fig8Sample(res, mtx, 1)
		r5, ok5 := fig8Sample(res, mtx, 5)
		if !ok1 || !ok5 {
			t.Fatalf("%s: missing rows", mtx)
		}
		// Communication time collapses once s > 1 (latency amortized).
		if r5.CommTime >= r1.CommTime {
			t.Fatalf("%s: comm did not drop: s=1 %v, s=5 %v", mtx, r1.CommTime, r5.CommTime)
		}
		// Compute grows with s (boundary overlap work).
		if r5.ComputeTime < r1.ComputeTime {
			t.Fatalf("%s: compute shrank with s", mtx)
		}
	}
}

func TestFig10MeasuredMatchesAnalytic(t *testing.T) {
	rows := fig10(tiny())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredComm != r.CommCount {
			t.Fatalf("%s: measured %d, analytic %d", r.Name, r.MeasuredComm, r.CommCount)
		}
	}
}

func TestFig11cOrdering(t *testing.T) {
	rows := fig11c(Config{Scale: 0.01, MaxDevices: 3})
	get := func(name string, ng int) float64 {
		for _, r := range rows {
			if r.Strategy == name && r.Devices == ng {
				return r.EffectiveGflops
			}
		}
		t.Fatalf("missing %s/%d", name, ng)
		return 0
	}
	// BLAS-3 strategies dominate, CGS in the middle, MGS at the floor
	// (Figure 11c's ordering), on one device.
	if !(get("CholQR", 1) > get("CGS", 1) && get("CGS", 1) > get("MGS", 1)) {
		t.Fatalf("rate ordering broken: CholQR %v, CGS %v, MGS %v",
			get("CholQR", 1), get("CGS", 1), get("MGS", 1))
	}
	// CAQR lands well below CholQR (BLAS-1/2 local factorization).
	if get("CAQR", 1)*2 > get("CholQR", 1) {
		t.Fatalf("CAQR %v not clearly below CholQR %v", get("CAQR", 1), get("CholQR", 1))
	}
	// Every strategy scales with devices.
	for _, name := range []string{"MGS", "CGS", "CholQR", "SVQR", "CAQR"} {
		if get(name, 3) <= get(name, 1) {
			t.Fatalf("%s does not scale: 1ng %v vs 3ng %v", name, get(name, 1), get(name, 3))
		}
	}
}

func TestFig11abBatchedWins(t *testing.T) {
	// The batched schedule beats the serial one, and the parallel GEMV
	// the serial GEMV, as exact properties of the cost model.
	gf := map[string]float64{}
	for _, r := range fig11ab(Config{Scale: 0.01}) {
		if r.Rows == 1<<17 {
			gf[r.Kernel] = r.Gflops
		}
	}
	if len(gf) != 4 {
		t.Fatalf("tall-size kernels %v, want 4", gf)
	}
	if gf["gemm/batched"] <= gf["gemm/serial"] {
		t.Fatalf("batched GEMM (%v GF) not above serial (%v GF)", gf["gemm/batched"], gf["gemm/serial"])
	}
	if gf["gemv/parallel"] <= gf["gemv/serial"] {
		t.Fatalf("parallel GEMV (%v GF) not above serial (%v GF)", gf["gemv/parallel"], gf["gemv/serial"])
	}
}

func TestFig11abDeterministic(t *testing.T) {
	// Two runs of the modeled figure produce bit-identical rows, the
	// property that makes `go test -count=5` byte-stable.
	a := fig11ab(Config{Scale: 0.01})
	b := fig11ab(Config{Scale: 0.01})
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFig3GPUBeatsCPUAndScales(t *testing.T) {
	// GPUs only pay off above a problem-size threshold (latency floor),
	// so this test needs paper-comparable sizes: scale 0.05 is ~80k rows.
	rows := fig3(Config{Scale: 0.05, MaxDevices: 3, MaxRestarts: 3})
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Matrix+"/"+r.Target] = r.TimePerRestart
	}
	for _, mtx := range []string{"cant", "G3_circuit"} {
		cpu := byKey[mtx+"/CPU"]
		g1 := byKey[mtx+"/"+gpuLabel(1)]
		g3 := byKey[mtx+"/"+gpuLabel(3)]
		if cpu == 0 || g1 == 0 || g3 == 0 {
			t.Fatalf("%s: missing rows %v", mtx, byKey)
		}
		if g1 >= cpu {
			t.Fatalf("%s: 1 GPU (%v) not faster than CPU (%v)", mtx, g1, cpu)
		}
		if g3 >= g1 {
			t.Fatalf("%s: 3 GPUs (%v) not faster than 1 (%v)", mtx, g3, g1)
		}
	}
}

func TestFig13ErrorOrdering(t *testing.T) {
	res := fig13(Config{Scale: 0.004, MaxDevices: 1, MaxRestarts: 3})
	for _, rows := range [][]fig13Row{res.Rows20, res.Rows30} {
		caqr, ok1 := findStrategy(rows, "CAQR")
		chol, ok2 := findStrategy(rows, "CholQR")
		mgs, ok3 := findStrategy(rows, "MGS")
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("missing strategies: %+v", rows)
		}
		if caqr.Failed || mgs.Failed {
			t.Fatalf("CAQR/MGS failed unexpectedly")
		}
		// CAQR's orthogonality error is machine-level; CholQR's is
		// amplified by the squared condition number (Figure 13).
		if !chol.Failed && chol.OrthAvg < caqr.OrthAvg {
			t.Fatalf("CholQR orth %v unexpectedly below CAQR %v", chol.OrthAvg, caqr.OrthAvg)
		}
		if caqr.OrthAvg > 1e-10 {
			t.Fatalf("CAQR orth error %v too large", caqr.OrthAvg)
		}
		// Factorization errors stay small for every surviving strategy.
		for _, r := range rows {
			if !r.Failed && r.FactAvg > 1e-8 {
				t.Fatalf("%s factorization error %v", r.Strategy, r.FactAvg)
			}
		}
	}
}

func TestFig14ProducesSpeedups(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 0.002, MaxDevices: 2, MaxRestarts: 4, Out: &buf}
	rows := fig14(cfg)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Sanity: every matrix block contains a CA-GMRES(15) row that beats
	// the MGS GMRES row on one device.
	perMatrix := map[string][]fig14Row{}
	for _, r := range rows {
		perMatrix[r.Matrix] = append(perMatrix[r.Matrix], r)
	}
	for mtx, rs := range perMatrix {
		var mgsTotal, caTotal float64
		for _, r := range rs {
			if r.Solver == "GMRES" && r.Ortho == "MGS" && r.Devices == 1 {
				mgsTotal = r.TotalPerRestart
			}
			if r.Solver == "CA-GMRES" && r.S == 15 && r.Devices == 1 && r.Err == "" &&
				strings.Contains(r.Ortho, "C") && r.Ortho != "CGS" && r.Ortho != "2xCGS" {
				caTotal = r.TotalPerRestart
			}
		}
		if mgsTotal == 0 || caTotal == 0 {
			t.Fatalf("%s: missing reference rows", mtx)
		}
		if caTotal >= mgsTotal {
			t.Fatalf("%s: CA-GMRES/CholQR (%v) not faster than GMRES/MGS (%v)", mtx, caTotal, mgsTotal)
		}
	}
	if !strings.Contains(buf.String(), "CA-GMRES") {
		t.Fatal("table not printed")
	}
}

func TestFig15Normalization(t *testing.T) {
	rows := fig15(Config{Scale: 0.008, MaxDevices: 2, MaxRestarts: 5})
	// GMRES on one device is the 1.0 reference for every matrix.
	for _, r := range rows {
		if r.Solver == "GMRES" && r.Devices == 1 {
			if r.Normalized != 1 {
				t.Fatalf("%s: reference not 1.0: %v", r.Matrix, r.Normalized)
			}
		}
	}
	// CA-GMRES achieves a speedup > 1 on at least half the matrices.
	wins := 0
	caRows := 0
	for _, r := range rows {
		if r.Solver == "CA-GMRES" && r.Err == "" && r.Devices == 1 {
			caRows++
			if r.Speedup > 1.1 {
				wins++
			}
		}
	}
	if caRows == 0 {
		t.Fatal("no CA rows")
	}
	if wins < caRows-1 {
		t.Fatalf("CA-GMRES won only %d of %d matrices", wins, caRows)
	}
}
