package fleet

import (
	"testing"

	"wbsn/internal/link"
	"wbsn/internal/telemetry"
)

// TestFleetTraceContinuity drives a lossy fleet with the trace collector
// attached and asserts end-to-end stitching: every published tree (a
// tree is only published when its window reaches ordered delivery)
// carries both node-side spans (encode, link) and gateway-side spans
// (decode, deliver), i.e. the trace ID survived the node → ARQ →
// reassembly → reconstruction chain intact.
func TestFleetTraceContinuity(t *testing.T) {
	cfg := fastCfg(4, 2)
	cfg.Fleet.Channel = link.ChannelConfig{
		PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.02, LossBad: 0.5,
	}
	set := telemetry.NewSet(telemetry.NewRegistry())
	cfg.Fleet.Telemetry = set
	_, rep := runCluster(t, cfg)

	if rep.Delivered == 0 {
		t.Fatal("no windows delivered; channel config too hostile for the test")
	}

	snap := set.Trace.Snapshot()
	if snap.Recorded == 0 {
		t.Fatal("trace collector recorded nothing")
	}
	if len(snap.Recent) == 0 {
		t.Fatal("no trace trees published")
	}
	for i, tr := range append(snap.Recent, snap.Slowest...) {
		if tr.Trace == "" {
			t.Fatalf("tree %d: empty trace id", i)
		}
		node := map[string]bool{}
		for _, sp := range tr.Node {
			node[sp.Kind] = true
		}
		gw := map[string]bool{}
		for _, sp := range tr.Gateway {
			gw[sp.Kind] = true
		}
		if !node["encode"] || !node["link"] {
			t.Errorf("tree %d (%s): node side incomplete: %v", i, tr.Trace, node)
		}
		if !gw["decode"] || !gw["deliver"] {
			t.Errorf("tree %d (%s): gateway side incomplete: %v", i, tr.Trace, gw)
		}
		if tr.TotalNs <= 0 {
			t.Errorf("tree %d (%s): non-positive total %d", i, tr.Trace, tr.TotalNs)
		}
	}
	// Link spans must carry the ARQ annotations the fleet is uniquely
	// positioned to produce (retransmissions under a lossy channel).
	var sawAttempts, sawEnergy bool
	for _, tr := range append(snap.Recent, snap.Slowest...) {
		for _, sp := range tr.Node {
			if sp.Kind == "link" {
				if sp.Attempts > 0 {
					sawAttempts = true
				}
				if sp.RadioNJ > 0 {
					sawEnergy = true
				}
			}
		}
	}
	if !sawAttempts || !sawEnergy {
		t.Errorf("link spans missing ARQ annotations: attempts=%v energy=%v", sawAttempts, sawEnergy)
	}
}
