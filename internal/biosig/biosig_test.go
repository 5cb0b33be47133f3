package biosig

import (
	"math"
	"math/rand"
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

func TestPATBPInverses(t *testing.T) {
	for _, bp := range []float64{80, 100, 120, 140, 160} {
		pat := PATForBP(bp, 0.65)
		back := BPForPAT(pat, 0.65)
		if math.Abs(back-bp) > 0.01 {
			t.Errorf("BPForPAT(PATForBP(%v)) = %v", bp, back)
		}
	}
}

func TestPATDecreasesWithBP(t *testing.T) {
	prev := math.Inf(1)
	for bp := 80.0; bp <= 180; bp += 10 {
		pat := PATForBP(bp, 0.65)
		if pat >= prev {
			t.Fatalf("PAT should fall with BP: %v at %v", pat, bp)
		}
		if pat < 0.06 {
			t.Fatalf("PAT %v below pre-ejection period", pat)
		}
		prev = pat
	}
}

func TestPWVFromPAT(t *testing.T) {
	pat := PATForBP(120, 0.65)
	pwv := PWVFromPAT(pat, 0.65)
	want := 1.2 * math.Exp(0.0115*120)
	if math.Abs(pwv-want) > 0.01 {
		t.Errorf("PWV = %v, want %v", pwv, want)
	}
	// Degenerate PAT below PEP clamps rather than exploding.
	if v := PWVFromPAT(0.01, 0.65); math.IsInf(v, 0) || v <= 0 {
		t.Errorf("degenerate PAT gave PWV %v", v)
	}
}

func TestSynthesizePPGValidation(t *testing.T) {
	if _, _, err := SynthesizePPG(100, []int{1}, []float64{100}, PPGConfig{}); err != ErrConfig {
		t.Error("missing Fs should fail")
	}
	if _, _, err := SynthesizePPG(100, []int{1, 2}, []float64{100}, PPGConfig{Fs: 256}); err != ErrConfig {
		t.Error("mismatched rPeaks/bp should fail")
	}
}

func TestSynthesizePPGOnsets(t *testing.T) {
	fs := 256.0
	rPeaks := []int{200, 500, 800}
	bp := []float64{120, 120, 120}
	ppg, onsets, err := SynthesizePPG(1200, rPeaks, bp, PPGConfig{Fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(onsets) != 3 {
		t.Fatalf("got %d onsets", len(onsets))
	}
	wantPAT := PATForBP(120, 0.65)
	for i, o := range onsets {
		gotPAT := float64(o-rPeaks[i]) / fs
		if math.Abs(gotPAT-wantPAT) > 2.0/fs {
			t.Errorf("onset %d PAT %v, want %v", i, gotPAT, wantPAT)
		}
	}
	// Signal rises after each onset.
	for _, o := range onsets {
		if ppg[o+10] <= ppg[o] {
			t.Errorf("PPG does not rise after onset %d", o)
		}
	}
}

func TestDetectPulseFeetRecoversPAT(t *testing.T) {
	fs := 256.0
	rec := ecg.Generate(ecg.Config{Seed: 3, Duration: 30})
	rPeaks := rec.RPeaks()
	bp := make([]float64, len(rPeaks))
	for i := range bp {
		bp[i] = 125
	}
	ppg, _, err := SynthesizePPG(rec.Len(), rPeaks, bp, PPGConfig{Fs: fs, NoiseRMS: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	feet := DetectPulseFeet(ppg, rPeaks, fs)
	pats := EstimatePAT(rPeaks, feet, fs)
	if len(pats) < len(rPeaks)*8/10 {
		t.Fatalf("only %d/%d PATs measured", len(pats), len(rPeaks))
	}
	truth := PATForBP(125, 0.65)
	if err := math.Abs(dsp.Mean(pats) - truth); err > 0.015 {
		t.Errorf("mean PAT error %v s", err)
	}
}

func TestBPEstimationEndToEnd(t *testing.T) {
	// Forward-synthesize PPG under a BP ramp, calibrate on the first
	// half, and track the ramp on the second half.
	fs := 256.0
	rec := ecg.Generate(ecg.Config{Seed: 6, Duration: 120})
	rPeaks := rec.RPeaks()
	bp := make([]float64, len(rPeaks))
	for i := range bp {
		bp[i] = 110 + 30*float64(i)/float64(len(bp)) // 110→140 mmHg drift
	}
	ppg, _, err := SynthesizePPG(rec.Len(), rPeaks, bp, PPGConfig{Fs: fs, NoiseRMS: 0.005, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	feet := DetectPulseFeet(ppg, rPeaks, fs)
	half := len(rPeaks) / 2
	var calPAT, calBP, tstPAT, tstBP []float64
	for i, f := range feet {
		if f < 0 {
			continue
		}
		pat := float64(f-rPeaks[i]) / fs
		if i < half {
			calPAT = append(calPAT, pat)
			calBP = append(calBP, bp[i])
		} else {
			tstPAT = append(tstPAT, pat)
			tstBP = append(tstBP, bp[i])
		}
	}
	cal, err := FitBPCalibration(calPAT, calBP)
	if err != nil {
		t.Fatal(err)
	}
	var absErr float64
	for i := range tstPAT {
		absErr += math.Abs(cal.Estimate(tstPAT[i]) - tstBP[i])
	}
	absErr /= float64(len(tstPAT))
	// AAMI-style acceptability is ~5 mmHg mean error; the clean model
	// should do much better.
	if absErr > 5 {
		t.Errorf("mean BP estimation error %.2f mmHg", absErr)
	}
}

func TestFitBPCalibrationValidation(t *testing.T) {
	if _, err := FitBPCalibration([]float64{0.2}, []float64{120}); err != ErrNoData {
		t.Error("single point should fail")
	}
	if _, err := FitBPCalibration([]float64{0.2, 0.2}, []float64{120, 120}); err != ErrNoData {
		t.Error("identical PATs should fail")
	}
	if _, err := FitBPCalibration([]float64{0.2, -0.1}, []float64{120, 130}); err != ErrNoData {
		t.Error("non-positive PAT should fail")
	}
	if c := (BPCalibration{A: 100, B: 2}); c.Estimate(0) != 100 {
		t.Error("degenerate PAT should return intercept")
	}
}

func TestEnsembleAverageReducesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fs := 256.0
	n := int(60 * fs)
	// Template pulse repeated at known events + noise.
	template := make([]float64, 64)
	for i := range template {
		template[i] = math.Sin(math.Pi * float64(i) / 64)
	}
	x := make([]float64, n)
	var events []int
	for e := 100; e+64 < n; e += 230 {
		for i := range template {
			x[e+i] += template[i]
		}
		events = append(events, e)
	}
	for i := range x {
		x[i] += 0.4 * rng.NormFloat64()
	}
	avg := EnsembleAverage(x, events, 0, 64)
	if avg == nil {
		t.Fatal("no average produced")
	}
	if rmse := dsp.RMSE(template, avg); rmse > 0.1 {
		t.Errorf("EA residual %v, want < 0.1 (noise RMS 0.4, %d beats)", rmse, len(events))
	}
	if EnsembleAverage(x, []int{n + 5}, 0, 64) != nil {
		t.Error("out-of-range events should give nil")
	}
	if EnsembleAverage(x, events, 0, 0) != nil {
		t.Error("zero window should give nil")
	}
}

func TestAICFValidation(t *testing.T) {
	if _, err := NewAICF(0, 0, 0.1); err != ErrConfig {
		t.Error("zero window should fail")
	}
	if _, err := NewAICF(10, 0, 0); err != ErrConfig {
		t.Error("zero mu should fail")
	}
	if _, err := NewAICF(10, 0, 1.5); err != ErrConfig {
		t.Error("mu > 1 should fail")
	}
}

func TestAICFConvergesToTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	template := make([]float64, 32)
	for i := range template {
		template[i] = math.Sin(2 * math.Pi * float64(i) / 32)
	}
	n := 20000
	x := make([]float64, n)
	var events []int
	for e := 50; e+32 < n; e += 200 {
		for i := range template {
			x[e+i] += template[i]
		}
		events = append(events, e)
	}
	for i := range x {
		x[i] += 0.3 * rng.NormFloat64()
	}
	f, err := NewAICF(32, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	outs := f.Filter(x, events)
	if len(outs) != len(events) {
		t.Fatalf("got %d outputs for %d events", len(outs), len(events))
	}
	if f.beats != len(events) {
		t.Error("beat counter wrong")
	}
	if rmse := dsp.RMSE(template, outs[len(outs)-1]); rmse > 0.15 {
		t.Errorf("AICF residual %v after %d beats", rmse, len(events))
	}
}

func TestAICFTracksMorphologyChange(t *testing.T) {
	// The advantage over EA: halve the amplitude midway; the AICF
	// template must follow while the global EA stays in between.
	n := 40000
	x := make([]float64, n)
	var events []int
	amp := 1.0
	count := 0
	for e := 50; e+32 < n; e += 200 {
		if count == 100 {
			amp = 0.5
		}
		for i := 0; i < 32; i++ {
			x[e+i] += amp * math.Sin(2*math.Pi*float64(i)/32)
		}
		events = append(events, e)
		count++
	}
	f, _ := NewAICF(32, 0, 0.15)
	outs := f.Filter(x, events)
	lastPeak := 0.0
	for _, v := range outs[len(outs)-1] {
		if v > lastPeak {
			lastPeak = v
		}
	}
	if math.Abs(lastPeak-0.5) > 0.05 {
		t.Errorf("AICF final template peak %v, want ~0.5 (tracked change)", lastPeak)
	}
	ea := EnsembleAverage(x, events, 0, 32)
	eaPeak := 0.0
	for _, v := range ea {
		if v > eaPeak {
			eaPeak = v
		}
	}
	if eaPeak < 0.6 || eaPeak > 0.95 {
		t.Errorf("EA peak %v should sit between the two amplitudes (lost dynamics)", eaPeak)
	}
	// Update with non-fitting event returns nil.
	if f.Update(x, n) != nil {
		t.Error("out-of-range update should return nil")
	}
}

// BPForPAT inverts PATForBP.
func BPForPAT(pat, pathLength float64) float64 {
	const (
		c0  = 1.2
		al  = 0.0115
		pep = 0.06
	)
	tt := pat - pep
	if tt <= 0 {
		tt = 1e-3
	}
	pwv := pathLength / tt
	return math.Log(pwv/c0) / al
}

// The PAT estimate and its BP inverse below are read only by the
// tests.

// EstimatePAT returns the per-beat pulse arrival time in seconds from
// R peaks and detected pulse feet (skipping undetected feet).
func EstimatePAT(rPeaks, feet []int, fs float64) []float64 {
	var out []float64
	for i := range rPeaks {
		if i >= len(feet) || feet[i] < 0 {
			continue
		}
		out = append(out, float64(feet[i]-rPeaks[i])/fs)
	}
	return out
}
