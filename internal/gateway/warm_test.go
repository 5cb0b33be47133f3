package gateway

import (
	"testing"

	"wbsn/internal/telemetry"
)

// warmConfig enables the convergence-aware warm-started solver on top
// of the fast test config.
func warmConfig(t *testing.T) Config {
	t.Helper()
	_, ncfg := encodeRecord(t, 41, 1)
	cfg := fastConfig(ncfg)
	cfg.WarmStart = true
	cfg.Solver.Tol = 1e-3
	return cfg
}

// TestReceiverWarmResetAcrossRecords is the cross-record isolation
// proof for the warm-started solver: patient A's carried coefficients
// must never seed patient B. A pooled receiver replays record A, Resets
// and replays record B; the B reconstruction must be bit-identical to a
// fresh receiver's — any stale θ surviving the Reset would shift the
// warm solves and break the comparison. Covers both the inline path and
// a shared worker-pool engine.
func TestReceiverWarmResetAcrossRecords(t *testing.T) {
	eventsA, _ := encodeRecord(t, 41, 8)
	eventsB, _ := encodeRecord(t, 42, 8)
	cfg := warmConfig(t)

	for _, withEngine := range []bool{false, true} {
		name := "inline"
		if withEngine {
			name = "engine"
		}
		t.Run(name, func(t *testing.T) {
			var eng *Engine
			if withEngine {
				var err error
				eng, err = NewEngine(cfg, EngineConfig{Workers: 3})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
			}
			newRx := func() *Receiver {
				rx, err := NewReceiver(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if eng != nil {
					if err := rx.AttachEngine(eng); err != nil {
						t.Fatal(err)
					}
				}
				return rx
			}
			pooled := newRx()
			if err := pooled.ConsumeEvents(eventsA); err != nil {
				t.Fatal(err)
			}
			pooled.Reset()
			if err := pooled.ConsumeEvents(eventsB); err != nil {
				t.Fatal(err)
			}
			fresh := newRx()
			if err := fresh.ConsumeEvents(eventsB); err != nil {
				t.Fatal(err)
			}
			equalSignals(t, fresh.Signal(), pooled.Signal(), "warm receiver after Reset")
		})
	}
}

// TestReceiverWarmGapReset pins the ARQ-gap semantics: a lost window
// drops the carried coefficients, so the post-gap reconstruction is
// bit-identical to a cold decode of the same window — the stale θ from
// before the gap cannot poison it. The engine's solver metrics count
// the warm solves and the reset.
func TestReceiverWarmGapReset(t *testing.T) {
	events, _ := encodeRecord(t, 43, 8)
	cfg := warmConfig(t)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gm := telemetry.NewGatewayMetrics(telemetry.NewRegistry(), nil)
	eng, err := NewEngine(cfg, EngineConfig{Workers: 1, Metrics: gm})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := rx.AttachEngine(eng); err != nil {
		t.Fatal(err)
	}
	sm := gm.Solver

	var packets [][][]float64
	for _, e := range events {
		if e.Measurements != nil {
			packets = append(packets, e.Measurements)
		}
	}
	if len(packets) < 3 {
		t.Fatalf("need >= 3 packets, got %d", len(packets))
	}
	// Warm up on packet 0 and 1, then lose packet 2.
	if err := rx.ConsumePacket(packets[0]); err != nil {
		t.Fatal(err)
	}
	if err := rx.ConsumePacket(packets[1]); err != nil {
		t.Fatal(err)
	}
	if sm.WarmSolves.Value() != 1 {
		t.Fatalf("warm solves = %d after two packets, want 1", sm.WarmSolves.Value())
	}
	rx.ConsumeLostPacket()
	if sm.WarmResets.Value() != 1 {
		t.Fatalf("warm resets = %d after gap, want 1", sm.WarmResets.Value())
	}
	if err := rx.ConsumePacket(packets[2]); err != nil {
		t.Fatal(err)
	}
	if sm.WarmSolves.Value() != 1 {
		t.Error("post-gap decode still used a warm seed")
	}

	// Bit-identity: the post-gap window must equal a cold decode.
	cold, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.ConsumePacket(packets[2]); err != nil {
		t.Fatal(err)
	}
	n := cfg.CSWindow
	if n <= 0 {
		n = 512
	}
	got := rx.Signal()
	want := cold.Signal()
	for li := range want {
		tail := got[li][len(got[li])-n:]
		for i := range want[li] {
			if tail[i] != want[li][i] {
				t.Fatalf("lead %d sample %d: post-gap decode not bit-identical to cold", li, i)
			}
		}
	}
}

// TestEngineWarmMatchesInline checks the engine warm path reproduces
// the inline warm path bit for bit and reports its convergence stats
// through the engine's gateway metrics.
func TestEngineWarmMatchesInline(t *testing.T) {
	events, _ := encodeRecord(t, 44, 8)
	cfg := warmConfig(t)

	inline, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inline.ConsumeEvents(events); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	gm := telemetry.NewGatewayMetrics(reg, nil)
	eng, err := NewEngine(cfg, EngineConfig{Workers: 4, Metrics: gm})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pooled, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pooled.AttachEngine(eng); err != nil {
		t.Fatal(err)
	}
	if err := pooled.ConsumeEvents(events); err != nil {
		t.Fatal(err)
	}
	equalSignals(t, inline.Signal(), pooled.Signal(), "engine warm path")

	if gm.Solver.Solves.Value() == 0 {
		t.Error("engine recorded no solver stats")
	}
	if gm.Solver.WarmSolves.Value() == 0 {
		t.Error("engine recorded no warm solves across a contiguous stream")
	}
	if gm.Solver.Iters.Snapshot().Count != gm.Solver.Solves.Value() {
		t.Errorf("iters histogram has %d observations for %d solves",
			gm.Solver.Iters.Snapshot().Count, gm.Solver.Solves.Value())
	}
}
