package bench

import "testing"

// TestFigOverlapWins is the PR's acceptance property: on the G3_circuit
// configuration the stream schedule must never be slower than the
// synchronous schedule, and on the full device count it must win
// strictly for every basis depth s in {5, 10, 15}.
func TestFigOverlapWins(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	rows := figOverlap(cfg)
	if len(rows) != 3*cfg.MaxDevices {
		t.Fatalf("got %d rows, want %d", len(rows), 3*cfg.MaxDevices)
	}
	for _, r := range rows {
		if r.OverlapSec > r.SyncSec {
			t.Errorf("s=%d ng=%d: overlap %.6g exceeds sync %.6g", r.S, r.Devices, r.OverlapSec, r.SyncSec)
		}
		if r.Devices == cfg.MaxDevices && r.OverlapSec >= r.SyncSec {
			t.Errorf("s=%d ng=%d: no strict overlap win (%.6g vs %.6g)", r.S, r.Devices, r.OverlapSec, r.SyncSec)
		}
		if r.Speedup < 1 {
			t.Errorf("s=%d ng=%d: speedup %.4f < 1", r.S, r.Devices, r.Speedup)
		}
	}
}

// TestFigOverlapDeterministic: the study is a pure function of the cost
// model — two runs agree bit for bit.
func TestFigOverlapDeterministic(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	r1 := figOverlap(cfg)
	r2 := figOverlap(cfg)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}
