package paper

import (
	"errors"
	"fmt"
	"strings"

	"wbsn/internal/core"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
)

// Ladder is Figure 1: the radio bandwidth, node power and battery
// lifetime of one record at each abstraction level of the node, and the
// beats the delineation level emits.
type Ladder struct {
	Record *ecg.Record
	Rungs  []core.LadderRung
	Beats  []delineation.BeatFiducials
}

// Figure1 walks a minute of 3-lead sinus rhythm with occasional PVCs and
// light muscle noise (seed 1), Section II's ambulatory scenario, up the
// ladder; the classification level trains on the record with seed 7.
func Figure1() (*Ladder, error) {
	rec := ecg.Generate(ecg.Config{
		Seed:     1,
		Duration: 60,
		Rhythm:   ecg.RhythmConfig{PVCRate: 0.04},
		Noise:    ecg.NoiseConfig{EMG: 0.015},
	})
	rungs, err := core.Ladder(rec, 7)
	if err != nil {
		return nil, fmt.Errorf("figure 1 ladder: %w", err)
	}
	beats, err := NodeBeats(rec)
	if err != nil {
		return nil, fmt.Errorf("figure 1 delineation: %w", err)
	}
	return &Ladder{Record: rec, Rungs: rungs, Beats: beats}, nil
}

// Shape checks the ladder's five rungs: bandwidth falls at every step,
// battery lifetime is longer at the top than at the bottom, and the
// delineation rung lasts at least a week (the SmartCardia claim).
func (l *Ladder) Shape() error {
	if len(l.Rungs) != 5 {
		return fmt.Errorf("ladder has %d rungs", len(l.Rungs))
	}
	for i := 1; i < len(l.Rungs); i++ {
		if prev, r := l.Rungs[i-1], l.Rungs[i]; r.TxBytesPerSecond >= prev.TxBytesPerSecond {
			return fmt.Errorf("bandwidth did not fall from %s (%.1f) to %s (%.1f)",
				prev.Mode, prev.TxBytesPerSecond, r.Mode, r.TxBytesPerSecond)
		}
	}
	if l.Rungs[0].BatteryLifetimeH >= l.Rungs[4].BatteryLifetimeH {
		return errors.New("battery lifetime should grow with abstraction")
	}
	if h := l.Rungs[2].BatteryLifetimeH; h < 7*24 {
		return fmt.Errorf("delineation-mode lifetime %.0f h, want >= one week", h)
	}
	return nil
}

func (l *Ladder) String() string {
	var b strings.Builder
	rec := l.Record
	fmt.Fprintf(&b, "record %s: %d leads, %.0f s at %.0f Hz, %d beats\n\n",
		rec.Name, len(rec.Leads), rec.Duration(), rec.Fs, len(rec.Beats))
	b.WriteString("Figure 1 ladder — on-node processing vs transmitted bandwidth:\n")
	fmt.Fprintf(&b, "%-22s %14s %12s %14s\n", "abstraction level", "radio (B/s)", "power (mW)", "battery (days)")
	for _, r := range l.Rungs {
		fmt.Fprintf(&b, "%-22s %14.1f %12.3f %14.1f\n",
			r.Mode, r.TxBytesPerSecond, r.AvgPowerW*1e3, r.BatteryLifetimeH/24)
	}
	b.WriteString(verdict(l.Shape(), "bandwidth falls at every rung, delineation lasts over a week"))
	fmt.Fprintf(&b, "\ndelineation found %d beats; first three:\n", len(l.Beats))
	for i, f := range l.Beats[:min(3, len(l.Beats))] {
		fmt.Fprintf(&b, "  beat %d: P %d..%d  QRS %d..%d (R %d)  T %d..%d\n",
			i+1, f.P.On, f.P.Off, f.QRS.On, f.QRS.Off, f.R, f.T.On, f.T.Off)
	}
	return b.String()
}
