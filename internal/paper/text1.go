package paper

import (
	"errors"
	"fmt"
	"strings"

	"wbsn/internal/core"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
	"wbsn/internal/wbsn"
)

// DelineationAccuracy is the Text-1 claim: the delineation node's
// per-fiducial Se and PPV (paper: above 90% in all cases), and the
// 3L-MMD workload's single-core cycles per 1 s window, duty cycle at
// 2 MHz and modelled memory (paper: 7%, 7.2 kB).
type DelineationAccuracy struct {
	Report         delineation.Report
	Cycles         int64
	Duty, MemoryKB float64
}

// Text1 scores the delineation node with CSE-style tolerances over 5
// synthetic 3-lead records of 60 s with ambulatory noise (seeds 7-11).
func Text1() (*DelineationAccuracy, error) {
	d := &DelineationAccuracy{}
	for seed := int64(7); seed < 12; seed++ {
		rec := ecg.Generate(ecg.Config{Seed: seed, Duration: 60, Noise: ecg.AmbulatoryNoise()})
		beats, err := NodeBeats(rec)
		if err != nil {
			return nil, fmt.Errorf("text-1 record seed %d: %w", seed, err)
		}
		d.Report = delineation.Merge(d.Report, delineation.Evaluate(rec, beats, delineation.DefaultTolerances()))
	}
	app := wbsn.App3LMMD()
	res, err := wbsn.RunApp(app, wbsn.DefaultEnergy(), 1)
	if err != nil {
		return nil, fmt.Errorf("text-1 resources: %w", err)
	}
	d.Cycles = res.SCStats.Cycles
	d.Duty = wbsn.DutyCycleAt(d.Cycles, 2e6, 1.0)
	// The simulator unrolls the per-sample kernel 256 times, so the
	// deployed code footprint is one loop body (16-bit instructions)
	// plus the transform buffers: 5 à-trous scales of 256 samples at
	// 16 bits, the input window, and the delineator's working state.
	mcProg, _, err := app.Programs()
	if err != nil {
		return nil, fmt.Errorf("text-1 resources: %w", err)
	}
	codeBytes := 2 * (len(mcProg.Instrs) / 256)
	dataBytes := 5*256*2 + 256*2 + 512
	d.MemoryKB = float64(codeBytes+dataBytes) / 1024
	return d, nil
}

// NodeBeats returns the beats a delineation node sized to rec emits.
func NodeBeats(rec *ecg.Record) ([]delineation.BeatFiducials, error) {
	node, err := core.NewNode(core.Config{Mode: core.ModeDelineation, Fs: rec.Fs, Leads: len(rec.Leads)})
	if err != nil {
		return nil, err
	}
	res, err := node.Process(rec)
	if err != nil {
		return nil, err
	}
	beats := make([]delineation.BeatFiducials, len(res.Beats))
	for i, b := range res.Beats {
		beats[i] = b.Fiducials
	}
	return beats, nil
}

// Shape checks every fiducial's Se and PPV against the paper's 90%.
func (d *DelineationAccuracy) Shape() error {
	if !d.Report.AllAbove(0.90) {
		return errors.New("some fiducial below 90%")
	}
	return nil
}

func (d *DelineationAccuracy) String() string {
	var b strings.Builder
	b.WriteString("== Delineation accuracy (wavelet, ambulatory noise, 5 records x 60 s) ==\n")
	b.WriteString(d.Report.String())
	b.WriteString(verdict(d.Shape(), "all Se/PPV above the paper's 90% target"))
	b.WriteString("\n== Embedded resource estimate ==\n")
	fmt.Fprintf(&b, "single-core cycles per 1 s window: %d -> duty cycle %.1f%% at 2 MHz (paper: 7%%)\n",
		d.Cycles, 100*d.Duty)
	fmt.Fprintf(&b, "estimated memory footprint: %.1f kB code+data (paper: 7.2 kB)\n", d.MemoryKB)
	return b.String()
}
