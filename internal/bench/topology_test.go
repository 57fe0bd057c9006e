package bench

import (
	"testing"

	"cagmres/internal/gpu"
)

// topoRow finds the study row for one fabric at one device count.
func topoRow(t *testing.T, rows []topologyRow, kind gpu.TopoKind, ng int) topologyRow {
	t.Helper()
	for _, r := range rows {
		if r.Topology == string(kind) && r.Devices == ng {
			return r
		}
	}
	t.Fatalf("no row for %s ng=%d", kind, ng)
	return topologyRow{}
}

// TestFigTopologyShapes pins the two reproduction targets of the
// interconnect study on the deterministic model clock: peer-to-peer
// routing beats bouncing halo traffic through the host on every peer
// fabric, and the absolute time communication avoidance saves shrinks
// as the fabric fattens.
func TestFigTopologyShapes(t *testing.T) {
	cfg := tiny()
	cfg.MaxDevices = 4
	rows := figTopology(cfg)
	if len(rows) != 4*cfg.MaxDevices {
		t.Fatalf("rows = %d, want %d", len(rows), 4*cfg.MaxDevices)
	}
	peerKinds := []gpu.TopoKind{gpu.TopoPCIeSwitch, gpu.TopoNVLinkRing, gpu.TopoAllToAll}

	for _, r := range rows {
		// CA-GMRES wins on every fabric at every device count.
		if r.CAAdvantage <= 1 {
			t.Errorf("%s ng=%d: CA advantage %.4f <= 1", r.Topology, r.Devices, r.CAAdvantage)
		}
		if r.CASavedSec <= 0 {
			t.Errorf("%s ng=%d: CA saved %.3g <= 0", r.Topology, r.Devices, r.CASavedSec)
		}
	}

	for ng := 1; ng <= cfg.MaxDevices; ng++ {
		hub := topoRow(t, rows, gpu.TopoHostHub, ng)
		// The host-hub fabric never routes a peer byte; peer fabrics route
		// halo traffic device-to-device as soon as two devices talk.
		if hub.PeerMB != 0 {
			t.Errorf("host-hub ng=%d: peer traffic %.3f MB != 0", ng, hub.PeerMB)
		}
		for _, kind := range peerKinds {
			r := topoRow(t, rows, kind, ng)
			if ng == 1 && r.PeerMB != 0 {
				t.Errorf("%s ng=1: peer traffic %.3f MB != 0 with one device", kind, r.PeerMB)
			}
			if ng >= 2 {
				if r.PeerMB <= 0 {
					t.Errorf("%s ng=%d: no peer traffic routed", kind, ng)
				}
				// The acceptance shape: peer-to-peer beats host-bounce.
				if r.P2PGain <= 1 {
					t.Errorf("%s ng=%d: p2p gain %.4f <= 1 (CA %.6g vs host-hub %.6g)",
						kind, ng, r.P2PGain, r.CASec, hub.CASec)
				}
				if r.GMRESSec >= hub.GMRESSec {
					t.Errorf("%s ng=%d: GMRES %.6g not faster than host-hub %.6g",
						kind, ng, r.GMRESSec, hub.GMRESSec)
				}
			}
		}

		// The MGMark shape: what communication avoidance saves shrinks as
		// the fabric fattens. Strict from hub to switch to either
		// NVLink-class fabric; the two NVLink fabrics themselves are
		// nearly tied (the halo volume is too small to congest either), so
		// between them only closeness is pinned.
		swit := topoRow(t, rows, gpu.TopoPCIeSwitch, ng)
		ring := topoRow(t, rows, gpu.TopoNVLinkRing, ng)
		a2a := topoRow(t, rows, gpu.TopoAllToAll, ng)
		if !(hub.CASavedSec > swit.CASavedSec) {
			t.Errorf("ng=%d: saved(hub)=%.6g not > saved(switch)=%.6g", ng, hub.CASavedSec, swit.CASavedSec)
		}
		for _, nv := range []topologyRow{ring, a2a} {
			if !(swit.CASavedSec > nv.CASavedSec) {
				t.Errorf("ng=%d: saved(switch)=%.6g not > saved(%s)=%.6g", ng, swit.CASavedSec, nv.Topology, nv.CASavedSec)
			}
		}
		if ng <= 3 {
			// Up to three devices every ring route is a single hop, so the
			// ring and the crossbar are the same fabric.
			if d := ring.CASavedSec - a2a.CASavedSec; d > 0.01*ring.CASavedSec || d < -0.01*ring.CASavedSec {
				t.Errorf("ng=%d: single-hop ring diverged from crossbar: saved %.6g vs %.6g", ng, ring.CASavedSec, a2a.CASavedSec)
			}
		} else {
			// At four devices the ring grows two-hop routes; the extra hops
			// leave more communication for CA to avoid than the crossbar does.
			if ring.CASavedSec < a2a.CASavedSec {
				t.Errorf("ng=%d: multi-hop ring saved %.6g < crossbar %.6g", ng, ring.CASavedSec, a2a.CASavedSec)
			}
		}
	}
}
