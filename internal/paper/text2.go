package paper

import (
	"fmt"
	"strings"

	"wbsn/internal/core"
	"wbsn/internal/ecg"
)

// AFDetection is the Text-2 claim: the AF-alarm node's record-level
// confusion counts (paper: sensitivity 96%, specificity 93%), and the
// AF votes among the AF records' window decisions.
type AFDetection struct {
	TP, FN, FP, TN    int
	WindowAF, Windows int
}

// Text2 runs the AF-alarm node over 20 NSR and 20 AF records of 120 s
// with light EMG noise (seeds 3-22 and 1003-1022); every third NSR
// record carries PVC and APB ectopy.
func Text2() (*AFDetection, error) {
	node, err := core.NewNode(core.Config{Mode: core.ModeAFAlarm})
	if err != nil {
		return nil, err
	}
	a := &AFDetection{}
	for i := int64(0); i < 20; i++ {
		nsr := ecg.Config{Seed: 3 + i, Duration: 120, Noise: ecg.NoiseConfig{EMG: 0.02}}
		if i%3 == 0 {
			nsr.Rhythm.PVCRate, nsr.Rhythm.APBRate = 0.08, 0.05
		}
		resN, err := node.Process(ecg.Generate(nsr))
		if err != nil {
			return nil, fmt.Errorf("text-2 NSR record %d: %w", i, err)
		}
		afib := ecg.Config{Seed: 1003 + i, Duration: 120, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}, Noise: nsr.Noise}
		resA, err := node.Process(ecg.Generate(afib))
		if err != nil {
			return nil, fmt.Errorf("text-2 AF record %d: %w", i, err)
		}
		if resN.AFAlarm {
			a.FP++
		} else {
			a.TN++
		}
		if resA.AFAlarm {
			a.TP++
		} else {
			a.FN++
		}
		for _, d := range resA.AFDecisions {
			a.Windows++
			if d.AF {
				a.WindowAF++
			}
		}
	}
	return a, nil
}

// rates returns the record-level sensitivity and specificity in percent.
func (a *AFDetection) rates() (se, sp float64) {
	return 100 * float64(a.TP) / float64(a.TP+a.FN), 100 * float64(a.TN) / float64(a.TN+a.FP)
}

// Shape checks that detection is at or above the paper's operating
// point: sensitivity at least 96% and specificity at least 93%.
func (a *AFDetection) Shape() error {
	if se, sp := a.rates(); !(se >= 96 && sp >= 93) {
		return fmt.Errorf("sensitivity %.1f%% (want >= 96%%), specificity %.1f%% (want >= 93%%)", se, sp)
	}
	return nil
}

func (a *AFDetection) String() string {
	var b strings.Builder
	se, sp := a.rates()
	b.WriteString("== AF detection over 20 NSR + 20 AF records (120 s each) ==\n")
	fmt.Fprintf(&b, "record-level: TP=%d FN=%d FP=%d TN=%d\n", a.TP, a.FN, a.FP, a.TN)
	fmt.Fprintf(&b, "sensitivity = %.1f%% (paper: 96%%)\n", se)
	fmt.Fprintf(&b, "specificity = %.1f%% (paper: 93%%)\n", sp)
	if a.Windows > 0 {
		fmt.Fprintf(&b, "window-level AF vote rate inside AF records: %.1f%%\n", 100*float64(a.WindowAF)/float64(a.Windows))
	}
	b.WriteString(verdict(a.Shape(), "at or above the paper's operating point"))
	return b.String()
}
