package core

import (
	"testing"
)

func TestModeControllerValidation(t *testing.T) {
	if _, err := NewModeController(Mode(99), DegradeConfig{}); err != ErrConfig {
		t.Error("bad start mode accepted")
	}
	if _, err := NewModeController(ModeCS, DegradeConfig{MinMode: ModeDelineation, MaxMode: ModeCS}); err != ErrConfig {
		t.Error("inverted bounds accepted")
	}
	if _, err := NewModeController(ModeCS, DegradeConfig{DowngradeBelow: 0.9, UpgradeAbove: 0.8}); err != ErrConfig {
		t.Error("inverted thresholds accepted")
	}
}

func TestModeControllerDowngradesAndRecovers(t *testing.T) {
	mc, err := NewModeController(ModeCS, DegradeConfig{Window: 2, HoldGood: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mc.mode != ModeCS {
		t.Fatalf("start mode %v", mc.mode)
	}
	// A healthy link holds the mode.
	for i := 0; i < 5; i++ {
		if m, changed := mc.Observe(i, 1.0); changed || m != ModeCS {
			t.Fatalf("healthy link switched mode at %d", i)
		}
	}
	// A bad observation drags the smoothed ratio under 0.85 and the
	// controller downgrades one rung.
	mc.Observe(5, 0.5)
	mc.Observe(6, 0.5)
	if mc.mode != ModeDelineation {
		t.Fatalf("degraded link did not downgrade: mode %v", mc.mode)
	}
	// Default MaxMode stops at delineation.
	for i := 7; i < 12; i++ {
		if m, _ := mc.Observe(i, 0); m != ModeDelineation {
			t.Fatalf("downgrade overshot MaxMode: %v", m)
		}
	}
	// Recovery requires the hold streak before upgrading.
	mc.Observe(12, 1.0)
	if mc.mode != ModeDelineation {
		t.Fatal("upgraded without holding")
	}
	found := false
	for i := 13; i < 20; i++ {
		if m, changed := mc.Observe(i, 1.0); changed {
			if m != ModeCS {
				t.Fatalf("recovered to %v, want ModeCS", m)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("sustained good link never upgraded")
	}
	tr := mc.Transitions()
	if len(tr) != 2 || tr[0].From != ModeCS || tr[0].To != ModeDelineation || tr[1].To != ModeCS {
		t.Errorf("transitions %v", tr)
	}
	if tr[0].String() == "" {
		t.Error("empty transition string")
	}
}

func TestModeControllerRespectsBounds(t *testing.T) {
	mc, err := NewModeController(ModeRawStreaming, DegradeConfig{
		Window: 1, MinMode: ModeRawStreaming, MaxMode: ModeAFAlarm, HoldGood: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keep observing a dead link: must walk the whole ladder and stop.
	for i := 0; i < 10; i++ {
		mc.Observe(i, 0)
	}
	if mc.mode != ModeAFAlarm {
		t.Errorf("mode %v, want ModeAFAlarm at full degradation", mc.mode)
	}
	// And climb all the way back.
	for i := 10; i < 30; i++ {
		mc.Observe(i, 1)
	}
	if mc.mode != ModeRawStreaming {
		t.Errorf("mode %v, want ModeRawStreaming after recovery", mc.mode)
	}
}
