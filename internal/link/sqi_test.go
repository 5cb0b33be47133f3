package link

import (
	"errors"
	"testing"

	"wbsn/internal/ecg"
)

func cleanLeads(t *testing.T, seed int64, dur float64) (*ecg.Record, [][]float64) {
	t.Helper()
	rec := ecg.Generate(ecg.Config{Seed: seed, Duration: dur, Noise: ecg.NoiseConfig{EMG: 0.01}})
	return rec, rec.Leads
}

func TestLeadSQIOnCleanECG(t *testing.T) {
	rec, leads := cleanLeads(t, 31, 20)
	for li := range leads {
		if q := LeadSQI(leads[li], rec.Fs); q < 0.9 {
			t.Errorf("clean lead %d SQI %.2f, want >= 0.9", li, q)
		}
	}
}

func TestLeadSQIFlagsFaults(t *testing.T) {
	rec, leads := cleanLeads(t, 32, 20)
	n := rec.Len()
	cases := []struct {
		name  string
		fault LeadFault
	}{
		{"lead-off", LeadFault{Lead: 1, Start: 0, End: n, Kind: FaultLeadOff}},
		{"saturation", LeadFault{Lead: 1, Start: 0, End: n, Kind: FaultSaturation, Level: 3.3}},
	}
	for _, tc := range cases {
		faulted, _, err := InjectFaults(leads, rec.Fs, FaultConfig{Schedule: []LeadFault{tc.fault}})
		if err != nil {
			t.Fatal(err)
		}
		if q := LeadSQI(faulted[1], rec.Fs); q > 0.1 {
			t.Errorf("%s lead SQI %.2f, want near 0", tc.name, q)
		}
		// Other leads untouched.
		if q := LeadSQI(faulted[0], rec.Fs); q < 0.9 {
			t.Errorf("%s: untouched lead scored %.2f", tc.name, q)
		}
	}
}

func TestLeadSQIPartialFault(t *testing.T) {
	rec, leads := cleanLeads(t, 33, 30)
	n := rec.Len()
	// Lead off for 40% of the record: SQI should land near 0.6.
	faulted, _, err := InjectFaults(leads, rec.Fs, FaultConfig{
		Schedule: []LeadFault{{Lead: 0, Start: 0, End: 2 * n / 5, Kind: FaultLeadOff}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := LeadSQI(faulted[0], rec.Fs)
	if q < 0.45 || q > 0.75 {
		t.Errorf("40%% lead-off SQI %.2f, want ~0.6", q)
	}
}

func TestGoodLeadsGatesAndKeepsBest(t *testing.T) {
	rec, leads := cleanLeads(t, 34, 20)
	n := rec.Len()
	faulted, _, err := InjectFaults(leads, rec.Fs, FaultConfig{
		Schedule: []LeadFault{{Lead: 2, Start: 0, End: n, Kind: FaultSaturation, Level: 3.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mask := GoodLeads(faulted, rec.Fs)
	if !mask[0] || !mask[1] || mask[2] {
		t.Errorf("gating mask %v, want [true true false]", mask)
	}
	// All leads dead: the least-bad one must stay enabled.
	allOff, _, err := InjectFaults(leads, rec.Fs, FaultConfig{
		Schedule: []LeadFault{
			{Lead: 0, Start: 0, End: n, Kind: FaultLeadOff},
			{Lead: 1, Start: 0, End: n, Kind: FaultLeadOff},
			{Lead: 2, Start: 0, End: n / 2, Kind: FaultLeadOff},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mask = GoodLeads(allOff, rec.Fs)
	count := 0
	for _, m := range mask {
		if m {
			count++
		}
	}
	if count != 1 || !mask[2] {
		t.Errorf("all-bad gating %v, want only the least-faulted lead", mask)
	}
}

func TestInjectFaultsDoesNotMutateInput(t *testing.T) {
	rec, leads := cleanLeads(t, 35, 10)
	before := append([]float64(nil), leads[0]...)
	_, _, err := InjectFaults(leads, rec.Fs, FaultConfig{
		Schedule: []LeadFault{{Lead: 0, Start: 0, End: rec.Len(), Kind: FaultLeadOff}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if leads[0][i] != before[i] {
			t.Fatal("InjectFaults mutated its input")
		}
	}
}

func TestInjectFaultsValidation(t *testing.T) {
	rec, leads := cleanLeads(t, 36, 5)
	bad := []FaultConfig{
		{Schedule: []LeadFault{{Lead: 9, Start: 0, End: 10}}},
		{Schedule: []LeadFault{{Lead: 0, Start: -1, End: 10}}},
		{Schedule: []LeadFault{{Lead: 0, Start: 10, End: 5}}},
		{Schedule: []LeadFault{{Lead: 0, Start: 0, End: rec.Len() + 1}}},
	}
	for i, cfg := range bad {
		if _, _, err := InjectFaults(leads, rec.Fs, cfg); !errors.Is(err, ErrFault) {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, _, err := InjectFaults(nil, rec.Fs, FaultConfig{}); !errors.Is(err, ErrFault) {
		t.Error("empty leads accepted")
	}
}

func TestRandomFaultEpisodesDeterministic(t *testing.T) {
	rec, leads := cleanLeads(t, 37, 60)
	cfg := FaultConfig{LeadOffRate: 2, SpikeRate: 4, Seed: 99}
	_, s1, err := InjectFaults(leads, rec.Fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := InjectFaults(leads, rec.Fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) == 0 {
		t.Fatal("rates produced no episodes in 60 s")
	}
	if len(s1) != len(s2) {
		t.Fatalf("schedules differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("episode %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}
