package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
	"wbsn/internal/link"
)

func TestConfigRejectsNonFiniteFields(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	bad := []Config{
		{Mode: ModeCS, Fs: nan},
		{Mode: ModeCS, Fs: inf},
		{Mode: ModeCS, Fs: -256},
		{Mode: ModeCS, Fs: 2 * ecg.MaxFs},
		{Mode: ModeDelineation, Fs: 2 * ecg.MaxFs},
		{Mode: ModeCS, CSRatio: nan},
		{Mode: ModeCS, CSRatio: -5},
		{Mode: ModeCS, CSRatio: 100},
		{Mode: ModeCS, CSRatio: inf},
		{Mode: ModeDelineation, Leads: -1},
		{Mode: ModeCS, CSWindow: -512},
	}
	for i, cfg := range bad {
		if _, err := NewNode(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d (%+v): got %v, want ErrConfig", i, cfg, err)
		}
	}
	// Zero still means "use the default".
	n, err := NewNode(Config{Mode: ModeCS})
	if err != nil {
		t.Fatal(err)
	}
	if n.Config().Fs != 256 {
		t.Error("zero fields should default, not fail")
	}
}

// runDelineation processes the faulted record at ModeDelineation and
// scores the detected beats against the original ground truth.
func runDelineation(t *testing.T, truth *ecg.Record, faulted [][]float64, gate bool) delineation.Report {
	t.Helper()
	frec := *truth
	frec.Leads = faulted
	node, err := NewNode(Config{Mode: ModeDelineation, GateLeads: gate})
	if err != nil {
		t.Fatal(err)
	}
	res, err := node.Process(&frec)
	if err != nil {
		t.Fatal(err)
	}
	dets := make([]delineation.BeatFiducials, len(res.Beats))
	for i, b := range res.Beats {
		dets[i] = b.Fiducials
	}
	return delineation.Evaluate(truth, dets, delineation.DefaultTolerances())
}

// TestLeadGatingSurvivesSaturatedLead pins one lead to the front-end
// rail for the whole record: the SQI must drop it and the node keep
// diagnosing on the remaining two.
func TestLeadGatingSurvivesSaturatedLead(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 61, Duration: 30, Noise: ecg.NoiseConfig{EMG: 0.01}})
	faulted, _, err := link.InjectFaults(rec.Leads, rec.Fs, link.FaultConfig{
		Schedule: []link.LeadFault{{Lead: 1, Start: 0, End: rec.Len(), Kind: link.FaultSaturation, Level: 3.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := link.GoodLeads(faulted, rec.Fs), []bool{true, false, true}; !slices.Equal(got, want) {
		t.Errorf("gate keeps leads %v, want %v", got, want)
	}
	gated := runDelineation(t, rec, faulted, true)
	if se := gated.R.Se(); se < 0.9 {
		t.Errorf("gated QRS Se %.3f with saturated lead, want >= 0.9", se)
	}
}

// TestLeadGatingRejectsArtifactLead rides dense 5 mV motion spikes on
// one lead. Ungated, the spikes dominate the RMS lead combination and
// delineation collapses into garbage; gated, the SQI drops the lead
// and the diagnosis survives — the exact "degrade instead of emitting
// garbage" behaviour the fault model exists to prove.
func TestLeadGatingRejectsArtifactLead(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 61, Duration: 30, Noise: ecg.NoiseConfig{EMG: 0.01}})
	fs := rec.Fs
	var sched []link.LeadFault
	for start := 0; start+int(0.4*fs) < rec.Len(); start += int(1.2 * fs) {
		sched = append(sched, link.LeadFault{
			Lead: 1, Start: start, End: start + int(0.4*fs), Kind: link.FaultSpike, Level: 5,
		})
	}
	faulted, _, err := link.InjectFaults(rec.Leads, fs, link.FaultConfig{Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if mask := link.GoodLeads(faulted, fs); mask[1] {
		t.Errorf("artifact lead not gated: %v", mask)
	}
	gated := runDelineation(t, rec, faulted, true)
	ungated := runDelineation(t, rec, faulted, false)
	if se := gated.R.Se(); se < 0.9 {
		t.Errorf("gated QRS Se %.3f under artifact, want >= 0.9", se)
	}
	if ppv := gated.R.PPV(); ppv < 0.9 {
		t.Errorf("gated QRS PPV %.3f under artifact, want >= 0.9", ppv)
	}
	if gated.R.Se() <= ungated.R.Se() && gated.R.PPV() <= ungated.R.PPV() {
		t.Errorf("gating did not help: gated Se=%.3f PPV=%.3f vs ungated Se=%.3f PPV=%.3f",
			gated.R.Se(), gated.R.PPV(), ungated.R.Se(), ungated.R.PPV())
	}
}

// TestLeadGatingFallsBackToSingleLead detaches two of three leads: the
// node must degrade to single-lead operation and still find QRS
// complexes.
func TestLeadGatingFallsBackToSingleLead(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 62, Duration: 30, Noise: ecg.NoiseConfig{EMG: 0.01}})
	faulted, _, err := link.InjectFaults(rec.Leads, rec.Fs, link.FaultConfig{
		Schedule: []link.LeadFault{
			{Lead: 0, Start: 0, End: rec.Len(), Kind: link.FaultLeadOff},
			{Lead: 2, Start: 0, End: rec.Len(), Kind: link.FaultSaturation, Level: 3.3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := link.GoodLeads(faulted, rec.Fs), []bool{false, true, false}; !slices.Equal(got, want) {
		t.Errorf("gate keeps leads %v, want only lead 1", got)
	}
	rep := runDelineation(t, rec, faulted, true)
	if se := rep.R.Se(); se < 0.9 {
		t.Errorf("single-lead fallback QRS Se %.3f, want >= 0.9", se)
	}
}

// TestStreamGatingIsPerChunk faults one lead for only part of the
// record; the streaming node must keep emitting beats throughout.
func TestStreamGatingIsPerChunk(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 63, Duration: 40, Noise: ecg.NoiseConfig{EMG: 0.01}})
	n := rec.Len()
	faulted, _, err := link.InjectFaults(rec.Leads, rec.Fs, link.FaultConfig{
		Schedule: []link.LeadFault{{Lead: 0, Start: n / 4, End: n / 2, Kind: link.FaultSaturation, Level: 3.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(Config{Mode: ModeDelineation, GateLeads: true})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	events, err := stream.PushBlock(faulted)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	rep := delineation.Evaluate(rec, beatEvents(append(events, tail...)), delineation.DefaultTolerances())
	if se := rep.R.Se(); se < 0.9 {
		t.Errorf("streaming QRS Se %.3f under partial saturation, want >= 0.9", se)
	}
}
