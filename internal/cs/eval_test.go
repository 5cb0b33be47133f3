package cs

import (
	"math"
	"testing"

	"wbsn/internal/ecg"
)

func smallRecordSet() []*ecg.Record {
	return ecg.GenerateSet(ecg.Config{Duration: 10}, 500, 2)
}

func TestEvaluateCRProducesFiniteSNR(t *testing.T) {
	if testing.Short() {
		t.Skip("CS sweep is slow")
	}
	recs := smallRecordSet()
	pt, err := EvaluateCR(recs, 50, SweepConfig{
		MaxWindowsPerRecord: 1,
		Solver:              SolverConfig{Iters: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pt.SNRSingle) || math.IsNaN(pt.SNRMulti) {
		t.Fatal("NaN SNR from sweep")
	}
	if pt.SNRSingle < 5 {
		t.Errorf("SNR at CR 50 suspiciously low: %v", pt.SNRSingle)
	}
	if pt.CR != 50 {
		t.Errorf("CR echoed wrong: %v", pt.CR)
	}
}

func TestSweepMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("CS sweep is slow")
	}
	recs := smallRecordSet()
	pts, err := Sweep(recs, []float64{30, 60, 90}, SweepConfig{
		MaxWindowsPerRecord: 1,
		Solver:              SolverConfig{Iters: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	if !(pts[0].SNRSingle > pts[2].SNRSingle) {
		t.Errorf("SNR should fall with CR: %v vs %v", pts[0].SNRSingle, pts[2].SNRSingle)
	}
}

func TestCrossingCR(t *testing.T) {
	pts := []SweepPoint{
		{CR: 40, SNRSingle: 30, SNRMulti: 35},
		{CR: 60, SNRSingle: 25, SNRMulti: 30},
		{CR: 80, SNRSingle: 15, SNRMulti: 22},
		{CR: 90, SNRSingle: 8, SNRMulti: 12},
	}
	cs := CrossingCR(pts, 20, false)
	if math.Abs(cs-70) > 1e-9 {
		t.Errorf("single-lead 20 dB crossing = %v, want 70", cs)
	}
	cm := CrossingCR(pts, 20, true)
	if math.Abs(cm-82) > 1e-9 {
		t.Errorf("multi-lead 20 dB crossing = %v, want 82", cm)
	}
	// Multi-lead crossing must be at higher CR (the Figure 5 ordering).
	if !(cm > cs) {
		t.Error("multi-lead should cross 20 dB at higher CR")
	}
	if !math.IsNaN(CrossingCR(pts, 1, false)) {
		t.Error("never-crossed target should return NaN")
	}
	if !math.IsNaN(CrossingCR(nil, 20, false)) {
		t.Error("empty curve should return NaN")
	}
}

func TestClampSNR(t *testing.T) {
	if clampSNR(math.Inf(1)) != 60 {
		t.Error("+Inf should clamp to 60")
	}
	if clampSNR(math.Inf(-1)) != -10 {
		t.Error("-Inf should clamp to -10")
	}
	if clampSNR(25) != 25 {
		t.Error("in-range value should pass through")
	}
}

func TestWindowsOf(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Duration: 10, Seed: 1})
	ws := windowsOf(rec, 512, 3)
	if len(ws) != 3 {
		t.Fatalf("got %d windows", len(ws))
	}
	for _, w := range ws {
		if len(w) != 3 {
			t.Fatal("window should have 3 leads")
		}
		for _, l := range w {
			if len(l) != 512 {
				t.Fatal("window lead length wrong")
			}
		}
	}
	// Request more windows than fit: truncated.
	ws = windowsOf(rec, 512, 100)
	if len(ws) != rec.Len()/512 {
		t.Errorf("expected %d windows, got %d", rec.Len()/512, len(ws))
	}
}

// TestFigure5Crossings pins the paper's central CS result as a
// regression test: on the EXPERIMENTS.md Figure 5 setup (4 synthetic
// 3-lead records, 3 windows each, d=4, 150 iterations, 2 reweighting
// passes; single-lead is a one-lead joint solve per lead) the averaged
// SNR crosses 20 dB at CR 66.3 single-lead and
// 71.7 multi-lead (paper: 65.9 and 72.7). Both crossings must stay
// within ±0.5 CR of those measurements, and joint multi-lead recovery
// must beat independent single-lead recovery at every sampled CR.
func TestFigure5Crossings(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("Figure 5 sweep runs full reconstructions")
	}
	recs := ecg.GenerateSet(ecg.Config{Duration: 20}, 42, 4)
	pts, err := Sweep(recs, []float64{65, 70, 75}, SweepConfig{
		Seed:                42,
		MaxWindowsPerRecord: 3,
		Solver:              SolverConfig{Iters: 150, Reweights: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Logf("CR %.0f: single-lead %.2f dB, multi-lead %.2f dB", p.CR, p.SNRSingle, p.SNRMulti)
		if !(p.SNRMulti > p.SNRSingle) {
			t.Errorf("CR %.0f: multi-lead SNR %.2f dB not above single-lead %.2f dB", p.CR, p.SNRMulti, p.SNRSingle)
		}
	}
	for _, c := range []struct {
		name  string
		multi bool
		want  float64
	}{
		{"single-lead", false, 66.3},
		{"multi-lead", true, 71.7},
	} {
		got := CrossingCR(pts, 20, c.multi)
		t.Logf("%s 20 dB crossing: CR %.2f (pinned %.1f ± 0.5)", c.name, got, c.want)
		if !(math.Abs(got-c.want) <= 0.5) {
			t.Errorf("%s 20 dB crossing at CR %.2f, want %.1f ± 0.5", c.name, got, c.want)
		}
	}
}
