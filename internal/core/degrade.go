package core

import (
	"fmt"
)

// This file implements channel-quality-driven graceful mode
// degradation: the Figure 1 ladder traversed in reverse. When the
// radio link degrades, the node climbs to a higher abstraction level
// (e.g. ModeCS → ModeDelineation) — fewer transmitted bytes mean fewer
// frames exposed to the failing channel and fewer retransmissions —
// and climbs back down once the link recovers, restoring the richer
// data product. This mirrors the adaptive IoMT node of Scrugli et al.
// (arXiv:2106.06498), which switches operating modes as measured
// conditions change.

// DegradeConfig parameterises the ModeController.
type DegradeConfig struct {
	// Window is how many delivery-ratio observations are averaged per
	// decision (default 4).
	Window int
	// DowngradeBelow is the smoothed delivery ratio under which the
	// node moves one rung up the ladder (default 0.85).
	DowngradeBelow float64
	// UpgradeAbove is the smoothed delivery ratio the link must hold —
	// for HoldGood consecutive decisions — before the node moves one
	// rung back down toward MinMode (defaults 0.97 and 3).
	UpgradeAbove float64
	HoldGood     int
	// MinMode and MaxMode bound the excursion: MinMode is the
	// preferred (data-richest) mode, MaxMode the deepest degradation
	// allowed (default ModeDelineation — fiducials remain clinically
	// useful when the link cannot carry waveforms).
	MinMode Mode
	MaxMode Mode
}

func (c DegradeConfig) withDefaults(start Mode) DegradeConfig {
	out := c
	if out.Window <= 0 {
		out.Window = 4
	}
	if out.DowngradeBelow <= 0 {
		out.DowngradeBelow = 0.85
	}
	if out.UpgradeAbove <= 0 {
		out.UpgradeAbove = 0.97
	}
	if out.HoldGood <= 0 {
		out.HoldGood = 3
	}
	if out.MinMode == 0 && out.MaxMode == 0 {
		out.MinMode = start
		out.MaxMode = ModeDelineation
		if out.MaxMode < start {
			out.MaxMode = start
		}
	}
	return out
}

// ModeTransition records one mode change and the link quality that
// caused it.
type ModeTransition struct {
	// At is the caller-supplied position (e.g. absolute sample index).
	At int
	// From and To are the modes before and after the switch.
	From, To Mode
	// Quality is the smoothed delivery ratio at the decision.
	Quality float64
}

// String renders the transition for logs.
func (t ModeTransition) String() string {
	return fmt.Sprintf("at %d: %s -> %s (delivery %.2f)", t.At, t.From, t.To, t.Quality)
}

// ModeController turns link delivery-ratio observations into mode
// switches. Feed it one observation per reporting interval (e.g. the
// fraction of windows delivered within the ARQ retry budget) and run
// the node at whatever Mode() returns.
type ModeController struct {
	cfg         DegradeConfig
	mode        Mode
	history     []float64
	goodStreak  int
	transitions []ModeTransition
}

// NewModeController builds a controller starting at the given mode.
func NewModeController(start Mode, cfg DegradeConfig) (*ModeController, error) {
	if start < ModeRawStreaming || start > ModeAFAlarm {
		return nil, ErrConfig
	}
	c := cfg.withDefaults(start)
	if c.MinMode > c.MaxMode || start < c.MinMode || start > c.MaxMode {
		return nil, ErrConfig
	}
	if c.DowngradeBelow > c.UpgradeAbove {
		return nil, ErrConfig
	}
	return &ModeController{cfg: c, mode: start}, nil
}

// Transitions returns every mode change so far, in order.
func (mc *ModeController) Transitions() []ModeTransition { return mc.transitions }

// Observe feeds one delivery-ratio sample (0..1) tagged with a stream
// position and returns the mode to use next plus whether it changed.
func (mc *ModeController) Observe(at int, deliveryRatio float64) (Mode, bool) {
	if deliveryRatio < 0 {
		deliveryRatio = 0
	}
	if deliveryRatio > 1 {
		deliveryRatio = 1
	}
	mc.history = append(mc.history, deliveryRatio)
	if len(mc.history) > mc.cfg.Window {
		mc.history = mc.history[len(mc.history)-mc.cfg.Window:]
	}
	sum := 0.0
	for _, v := range mc.history {
		sum += v
	}
	avg := sum / float64(len(mc.history))
	switch {
	case avg < mc.cfg.DowngradeBelow && mc.mode < mc.cfg.MaxMode:
		mc.goodStreak = 0
		return mc.switchTo(at, mc.mode+1, avg), true
	case avg >= mc.cfg.UpgradeAbove:
		mc.goodStreak++
		if mc.goodStreak >= mc.cfg.HoldGood && mc.mode > mc.cfg.MinMode {
			mc.goodStreak = 0
			// Recovery resets the smoothing window so one good burst
			// does not cascade straight back to MinMode.
			mc.history = mc.history[:0]
			return mc.switchTo(at, mc.mode-1, avg), true
		}
	default:
		mc.goodStreak = 0
	}
	return mc.mode, false
}

func (mc *ModeController) switchTo(at int, to Mode, quality float64) Mode {
	mc.transitions = append(mc.transitions, ModeTransition{At: at, From: mc.mode, To: to, Quality: quality})
	mc.mode = to
	return to
}
