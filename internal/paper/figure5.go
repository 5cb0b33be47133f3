package paper

import (
	"fmt"
	"math"
	"strings"

	"wbsn/internal/cs"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

// SNRCurve is Figure 5: the averaged output SNR against the compression
// ratio for single-lead and joint multi-lead recovery, and the CR at
// which each curve falls to 20 dB.
type SNRCurve struct {
	Points                  []cs.SweepPoint
	SingleCross, MultiCross float64
}

// Figure5 sweeps 12 compression ratios over 3 windows of 512 samples of
// 4 synthetic 3-lead records (20 s, seed 42), decoding with 150 FISTA
// iterations and 2 reweighting passes: about 10 s of reconstructions.
func Figure5() (*SNRCurve, error) {
	set := ecg.GenerateSet(ecg.Config{Duration: 20}, 42, 4)
	pts, err := cs.Sweep(set, []float64{20, 30, 40, 50, 55, 60, 65, 70, 75, 80, 85, 90}, cs.SweepConfig{
		MaxWindowsPerRecord: 3,
		Seed:                42,
		Solver:              cs.SolverConfig{Iters: 150, Reweights: 2},
	})
	if err != nil {
		return nil, fmt.Errorf("figure 5 sweep: %w", err)
	}
	return &SNRCurve{
		Points:      pts,
		SingleCross: cs.CrossingCR(pts, dsp.GoodReconstructionSNR, false),
		MultiCross:  cs.CrossingCR(pts, dsp.GoodReconstructionSNR, true),
	}, nil
}

// Shape checks that multi-lead recovery beats single-lead recovery at
// every CR and that the 20 dB crossings stay within ±0.5 CR of the
// measured 66.3 (single-lead) and 71.7 (multi-lead); the paper reports
// 65.9 and 72.7.
func (c *SNRCurve) Shape() error {
	for _, p := range c.Points {
		if !(p.SNRMulti > p.SNRSingle) {
			return fmt.Errorf("CR %.0f: multi-lead SNR %.2f dB not above single-lead %.2f dB", p.CR, p.SNRMulti, p.SNRSingle)
		}
	}
	if !(math.Abs(c.SingleCross-66.3) <= 0.5 && math.Abs(c.MultiCross-71.7) <= 0.5) {
		return fmt.Errorf("20 dB crossings at CR %.2f single-lead and %.2f multi-lead, want 66.3 and 71.7 ± 0.5", c.SingleCross, c.MultiCross)
	}
	return nil
}

func (c *SNRCurve) String() string {
	var b strings.Builder
	b.WriteString("== Figure 5: averaged output SNR vs compression ratio ==\n")
	fmt.Fprintf(&b, "%6s  %12s  %12s\n", "CR(%)", "SNR-SL(dB)", "SNR-ML(dB)")
	for _, p := range c.Points {
		fmt.Fprintf(&b, "%6.1f  %12.2f  %12.2f\n", p.CR, p.SNRSingle, p.SNRMulti)
	}
	fmt.Fprintf(&b, "\n20 dB crossing: single-lead CR = %.1f (paper: 65.9), multi-lead CR = %.1f (paper: 72.7)\n",
		c.SingleCross, c.MultiCross)
	b.WriteString(verdict(c.Shape(), "multi-lead above single-lead at every CR, both crossings within ±0.5 of 66.3 / 71.7"))
	return b.String()
}
