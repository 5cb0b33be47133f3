package main

import (
	"testing"

	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
)

// TestMorphConditionsTheRecord scores -method morph on a 60 s ambulatory
// record (ecggen -dur 60 -noise ambulatory -seed 7). Combined without
// conditioning, the record's baseline wander and EMG cost the MMD
// thresholds 12 of its 70 P peaks (Se 82.9%); through the node's
// conditioning filter every P peak is found, with at most one false R
// peak.
func TestMorphConditionsTheRecord(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Fs: 256, Duration: 60, Seed: 7, Noise: ecg.AmbulatoryNoise()})
	beats, err := morphBeats(rec)
	if err != nil {
		t.Fatal(err)
	}
	rep := delineation.Evaluate(rec, beats, delineation.DefaultTolerances())
	if se := rep.PPeak.Se(); se < 0.99 {
		t.Errorf("P-peak Se = %.1f%%, want every P peak found\n%s", 100*se, rep)
	}
	if rep.R.FP > 1 {
		t.Errorf("%d false R peaks, want at most 1\n%s", rep.R.FP, rep)
	}
}
