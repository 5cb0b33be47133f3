package paper

import (
	"fmt"
	"math"
	"strings"

	"wbsn/internal/wbsn"
)

// MulticorePower is Figure 7: the average power of the 3L-MF, 3L-MMD
// and RP-CLASS workloads on the synchronized multi-core platform of
// ref [18] (MC) and on one core (SC), and the Figure 3 compound mapping.
type MulticorePower struct {
	Apps     []wbsn.AppResult
	Compound wbsn.AppResult
}

// Figure7 simulates each workload with the default energy model and
// branch-outcome seed 1.
func Figure7() (*MulticorePower, error) {
	em := wbsn.DefaultEnergy()
	m := &MulticorePower{}
	for _, app := range []wbsn.AppSpec{wbsn.App3LMF(), wbsn.App3LMMD(), wbsn.AppRPClass()} {
		r, err := wbsn.RunApp(app, em, 1)
		if err != nil {
			return nil, fmt.Errorf("figure 7 %s: %w", app.Name, err)
		}
		m.Apps = append(m.Apps, r)
	}
	var err error
	if m.Compound, err = wbsn.RunCompound(em, 1); err != nil {
		return nil, fmt.Errorf("figure 3 compound mapping: %w", err)
	}
	return m, nil
}

func (m *MulticorePower) maxReduction() float64 {
	best := 0.0
	for _, r := range m.Apps {
		best = math.Max(best, r.Reduction)
	}
	return best
}

// Shape checks that on each workload MC saves more than 15% and at most
// 60% of SC's power, broadcast merges at least 2 fetches in one and
// shrinks the IMem share, and MC runs at a lower voltage and frequency;
// the best saving must be at least 35% (paper: up to 40%).
func (m *MulticorePower) Shape() error {
	if len(m.Apps) != 3 {
		return fmt.Errorf("expected 3 apps, got %d", len(m.Apps))
	}
	for i, r := range m.Apps {
		switch {
		case r.App != []string{"3L-MF", "3L-MMD", "RP-CLASS"}[i]:
			return fmt.Errorf("app %d is %s, want 3L-MF, 3L-MMD and RP-CLASS", i, r.App)
		case r.Reduction <= 0.15 || r.Reduction > 0.60:
			return fmt.Errorf("%s: MC reduction %.3f outside (0.15, 0.60]", r.App, r.Reduction)
		case r.MC.IMemW/r.MC.TotalW() >= r.SC.IMemW/r.SC.TotalW():
			return fmt.Errorf("%s: IMem share did not shrink (%.3f vs %.3f)", r.App, r.MC.IMemW/r.MC.TotalW(), r.SC.IMemW/r.SC.TotalW())
		case r.MC.Voltage >= r.SC.Voltage || r.MC.Freq >= r.SC.Freq:
			return fmt.Errorf("%s: MC operating point not scaled down", r.App)
		case r.MCStats.MergeRatio() < 2:
			return fmt.Errorf("%s: merge ratio %.2f, expected near core count", r.App, r.MCStats.MergeRatio())
		}
	}
	if best := m.maxReduction(); best < 0.35 {
		return fmt.Errorf("max reduction %.3f, want >= 0.35 (paper: up to 40%%)", best)
	}
	return nil
}

// String prints each workload's power split with its fetch merge ratio,
// which on MC is also the cycle cost of switching broadcast off.
func (m *MulticorePower) String() string {
	var b strings.Builder
	b.WriteString("== Figure 7: average power, synchronized multi-core (MC) vs single-core (SC) ==\n")
	fmt.Fprintf(&b, "%-10s %-4s %9s %8s %8s %8s %8s %8s %9s %7s\n",
		"app", "cfg", "f(kHz)", "V", "core", "imem", "dmem", "intc+lk", "total(µW)", "merge")
	for _, r := range m.Apps {
		row := func(tag string, p wbsn.PowerBreakdown, merge float64) {
			fmt.Fprintf(&b, "%-10s %-4s %9.0f %8.2f %8.3f %8.3f %8.3f %8.3f %9.3f %7.2f\n",
				r.App, tag, p.Freq/1e3, p.Voltage,
				p.CoreW*1e6, p.IMemW*1e6, p.DMemW*1e6, (p.IntcW+p.LeakW)*1e6,
				p.TotalW()*1e6, merge)
		}
		row("SC", r.SC, r.SCStats.MergeRatio())
		row("MC", r.MC, r.MCStats.MergeRatio())
		fmt.Fprintf(&b, "%-10s reduction: %.1f%%\n", r.App, 100*r.Reduction)
	}
	fmt.Fprintf(&b, "\nmax reduction: %.1f%% (paper: up to 40%%)\n", 100*m.maxReduction())
	c := m.Compound
	b.WriteString("\n== Figure 3 compound mapping: full pipeline on 8 cores ==\n")
	fmt.Fprintf(&b, "SC %6.0f kHz @ %.2f V -> %6.3f µW | MC %6.0f kHz @ %.2f V -> %6.3f µW | reduction %.1f%% (merge %.2fx)\n",
		c.SC.Freq/1e3, c.SC.Voltage, c.SC.TotalW()*1e6,
		c.MC.Freq/1e3, c.MC.Voltage, c.MC.TotalW()*1e6,
		100*c.Reduction, c.MCStats.MergeRatio())
	b.WriteString(verdict(m.Shape(), "MC below SC on every workload, best saving at least 35%"))
	return b.String()
}
