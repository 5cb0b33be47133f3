package cohort

import (
	"reflect"
	"testing"

	"wbsn/internal/ecg"
)

// TestClassesAreQuarters: every seed's draw gives each class exactly a
// quarter of the patients.
func TestClassesAreQuarters(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		var n [Classes]int
		for _, k := range New(seed).Class {
			n[k]++
		}
		for k, got := range n {
			if got != Patients/Classes {
				t.Fatalf("seed %d: class %s has %d patients, want %d", seed, Class(k), got, Patients/Classes)
			}
		}
	}
}

// TestSeedOneCohort pins the draw of cohort seed 1, the benchmark's
// default --seed: its base seed and every patient's class.
func TestSeedOneCohort(t *testing.T) {
	want := Cohort{Base: 7919, Class: [Patients]Class{
		AF, AF, CongestedRadio, AmbulatoryNoise, CongestedRadio, AF, BurstyBaseline, BurstyBaseline,
		BurstyBaseline, AmbulatoryNoise, BurstyBaseline, AmbulatoryNoise, AmbulatoryNoise, CongestedRadio, CongestedRadio, AF,
	}}
	if got := *New(1); got != want {
		t.Fatalf("cohort of seed 1:\n got %v\nwant %v", got, want)
	}
}

// TestScenarioIsPure holds Cohort.Scenario to the contract of the
// fleet's per-patient hook: repeated calls for one patient return equal
// values and never share a pointer, so no caller can change what
// another call (or another patient) sees.
func TestScenarioIsPure(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := New(seed)
		for p := 0; p < Patients; p++ {
			a, b := c.Scenario(p), c.Scenario(p)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d patient %d: scenario differs between calls:\n%+v\n%+v", seed, p, a, b)
			}
			if a.Rhythm != nil && a.Rhythm == b.Rhythm || a.Noise != nil && a.Noise == b.Noise ||
				a.Channel != nil && a.Channel == b.Channel || a.ARQ != nil && a.ARQ == b.ARQ {
				t.Fatalf("seed %d patient %d: two calls share a pointer: %+v", seed, p, a)
			}
		}
	}
}

// TestClassScenarios: each class deviates from the fleet's defaults in
// exactly its own dimension.
func TestClassScenarios(t *testing.T) {
	noise, congested := ecg.AmbulatoryNoise(), CongestedChannel()
	for _, tc := range []struct {
		k    Class
		want Scenario
	}{
		{AF, Scenario{Rhythm: &ecg.RhythmConfig{Kind: ecg.RhythmAF}}},
		{AmbulatoryNoise, Scenario{Noise: &noise}},
		{CongestedRadio, Scenario{Channel: &congested}},
		{BurstyBaseline, Scenario{}},
	} {
		if got := tc.k.Scenario(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: scenario %+v, want %+v", tc.k, got, tc.want)
		}
	}
}

// TestNetRecord pins the network workload's record rule: record r is
// class r mod 4 at generator seed Base(seed)+r, so the first four
// records are AF, ambulatory noise and two clean sinus records.
func TestNetRecord(t *testing.T) {
	const dur = 8
	for seed := int64(1); seed <= 100; seed++ {
		base := seed * 7919
		for r := 0; r < Patients; r++ {
			want := ecg.Config{Seed: base + int64(r), Duration: dur}
			switch r % 4 {
			case 0:
				want.Rhythm = ecg.RhythmConfig{Kind: ecg.RhythmAF}
			case 1:
				want.Noise = ecg.AmbulatoryNoise()
			}
			if got := NetRecord(seed, r, dur); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d record %d: %+v, want %+v", seed, r, got, want)
			}
		}
	}
}
