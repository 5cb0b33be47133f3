package biosig

import (
	"math"
	"math/rand"
	"testing"

	"wbsn/internal/ecg"
)

func TestSpO2CalibrationInverses(t *testing.T) {
	for _, s := range []float64{85, 90, 95, 98, 100} {
		r := RatioForSpO2(s)
		back := SpO2ForRatio(r)
		if math.Abs(back-s) > 1e-9 {
			t.Errorf("round trip of %v = %v", s, back)
		}
	}
	if SpO2ForRatio(-1) != 100 {
		t.Error("negative ratio should clamp to 100")
	}
	if SpO2ForRatio(10) != 0 {
		t.Error("huge ratio should clamp to 0")
	}
}

func TestSynthesizeOximeterValidation(t *testing.T) {
	if _, _, err := SynthesizeOximeter(100, []int{1}, []float64{98}, OximeterConfig{}); err != ErrConfig {
		t.Error("missing Fs should fail")
	}
	if _, _, err := SynthesizeOximeter(100, []int{1, 2}, []float64{98}, OximeterConfig{Fs: 256}); err != ErrConfig {
		t.Error("length mismatch should fail")
	}
}

func TestSpO2RoundTripThroughProbe(t *testing.T) {
	fs := 256.0
	rec := ecg.Generate(ecg.Config{Seed: 12, Duration: 60})
	rPeaks := rec.RPeaks()
	for _, truth := range []float64{85, 92, 98} {
		spo2 := make([]float64, len(rPeaks))
		for i := range spo2 {
			spo2[i] = truth
		}
		red, ir, err := SynthesizeOximeter(rec.Len(), rPeaks, spo2, OximeterConfig{Fs: fs, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		// Skip the lead-in before the first pulse.
		lo := rPeaks[0] + 100
		est, _ := EstimateSpO2(red[lo:], ir[lo:])
		if math.Abs(est-truth) > 1.5 {
			t.Errorf("SpO2 %v estimated as %.2f", truth, est)
		}
	}
}

func TestSpO2TracksDesaturation(t *testing.T) {
	// A desaturation event (e.g. apnea in the sleep scenario): windowed
	// estimates must follow the drop.
	fs := 256.0
	rec := ecg.Generate(ecg.Config{Seed: 13, Duration: 120})
	rPeaks := rec.RPeaks()
	spo2 := make([]float64, len(rPeaks))
	for i := range spo2 {
		if i < len(spo2)/2 {
			spo2[i] = 98
		} else {
			spo2[i] = 88
		}
	}
	red, ir, err := SynthesizeOximeter(rec.Len(), rPeaks, spo2, OximeterConfig{Fs: fs, NoiseRMS: 1e-4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	win, hop := int(10*fs), int(5*fs)
	ests := EstimateSpO2Windows(red, ir, win, hop)
	if len(ests) < 5 {
		t.Fatalf("only %d windows", len(ests))
	}
	first := ests[1] // skip the lead-in window
	last := ests[len(ests)-1]
	if math.Abs(first-98) > 2 {
		t.Errorf("pre-event SpO2 %.2f, want ~98", first)
	}
	if math.Abs(last-88) > 2 {
		t.Errorf("post-event SpO2 %.2f, want ~88", last)
	}
	if !(last < first-5) {
		t.Errorf("desaturation not tracked: %.1f -> %.1f", first, last)
	}
}

func TestEstimateSpO2Degenerate(t *testing.T) {
	if s, _ := EstimateSpO2(nil, nil); s != 0 {
		t.Error("empty channels should give 0")
	}
	if s, _ := EstimateSpO2([]float64{1}, []float64{1, 2}); s != 0 {
		t.Error("mismatched channels should give 0")
	}
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 1
	}
	if s, _ := EstimateSpO2(flat, flat); s != 0 {
		t.Error("no pulsation should give 0")
	}
	if EstimateSpO2Windows(flat, flat, 0, 5) != nil {
		t.Error("bad window params should give nil")
	}
}

// The pulse-oximetry model below is not run by any program; only these
// tests read it. Pulse oximetry is the second vital sign the paper's
// introduction names ("cardiac parameters of patients, such as
// electrocardiogram (ECG) and pulse oximetry (SpO2)"). A pulse oximeter
// drives the finger probe at two wavelengths; oxygenated and
// deoxygenated haemoglobin absorb them differently, so the arterial
// oxygen saturation follows from the "ratio of ratios"
//
//	R = (AC_red/DC_red) / (AC_ir/DC_ir)
//
// through the standard empirical calibration SpO2 ≈ 110 − 25·R.

// SpO2CalibA and SpO2CalibB are the empirical calibration constants of
// the classic ratio-of-ratios curve SpO2 = A − B·R.
const (
	SpO2CalibA = 110.0
	SpO2CalibB = 25.0
)

// RatioForSpO2 inverts the calibration: the ratio-of-ratios a probe
// would measure at the given saturation (percent).
func RatioForSpO2(spo2 float64) float64 {
	return (SpO2CalibA - spo2) / SpO2CalibB
}

// SpO2ForRatio applies the calibration curve, clamped to [0, 100].
func SpO2ForRatio(r float64) float64 {
	s := SpO2CalibA - SpO2CalibB*r
	if s > 100 {
		s = 100
	}
	if s < 0 {
		s = 0
	}
	return s
}

// OximeterConfig parameterises the two-wavelength probe model.
type OximeterConfig struct {
	// Fs is the sampling rate in Hz.
	Fs float64
	// DCRed and DCIR are the baseline (non-pulsatile) absorption levels.
	// Defaults 1.0 each.
	DCRed, DCIR float64
	// PerfusionIR is the IR perfusion index AC/DC (default 0.02, a
	// typical finger value).
	PerfusionIR float64
	// NoiseRMS is additive noise on both channels.
	NoiseRMS float64
	// Seed drives noise generation.
	Seed int64
}

func (c OximeterConfig) withDefaults() (OximeterConfig, error) {
	out := c
	if out.Fs <= 0 {
		return out, ErrConfig
	}
	if out.DCRed <= 0 {
		out.DCRed = 1
	}
	if out.DCIR <= 0 {
		out.DCIR = 1
	}
	if out.PerfusionIR <= 0 {
		out.PerfusionIR = 0.02
	}
	return out, nil
}

// SynthesizeOximeter renders the red and infrared PPG channels of a
// probe on a subject with the given per-beat SpO2 values, time-locked to
// the ECG R peaks like SynthesizePPG. Channel values are light
// intensities: DC level minus the pulsatile absorption.
func SynthesizeOximeter(n int, rPeaks []int, spo2 []float64, cfg OximeterConfig) (red, ir []float64, err error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if len(rPeaks) != len(spo2) {
		return nil, nil, ErrConfig
	}
	// Unit-amplitude pulse waveform from the PPG model at fixed PAT.
	bp := make([]float64, len(rPeaks))
	for i := range bp {
		bp[i] = 120
	}
	pulse, _, err := SynthesizePPG(n, rPeaks, bp, PPGConfig{Fs: c.Fs})
	if err != nil {
		return nil, nil, err
	}
	// Normalise the pulse to unit peak so perfusion sets the AC size.
	peak := 0.0
	for _, v := range pulse {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		peak = 1
	}
	red = make([]float64, n)
	ir = make([]float64, n)
	rng := rand.New(rand.NewSource(c.Seed))
	// Per-sample SpO2 by holding each beat's value until the next beat.
	beat := 0
	for i := 0; i < n; i++ {
		for beat+1 < len(rPeaks) && i >= rPeaks[beat+1] {
			beat++
		}
		ratio := RatioForSpO2(spo2[beat])
		acIR := c.PerfusionIR * c.DCIR
		acRed := ratio * c.PerfusionIR * c.DCRed
		p := pulse[i] / peak
		ir[i] = c.DCIR - acIR*p + c.NoiseRMS*rng.NormFloat64()
		red[i] = c.DCRed - acRed*p + c.NoiseRMS*rng.NormFloat64()
	}
	return red, ir, nil
}

// EstimateSpO2 computes the saturation over one analysis window of the
// two channels by the ratio-of-ratios method: AC as the RMS of the
// mean-removed channel, DC as its mean. Returns the estimate and the
// measured ratio. Degenerate windows (no pulsation) return SpO2 = 0.
func EstimateSpO2(red, ir []float64) (spo2, ratio float64) {
	if len(red) != len(ir) || len(red) == 0 {
		return 0, 0
	}
	acDC := func(x []float64) (ac, dc float64) {
		for _, v := range x {
			dc += v
		}
		dc /= float64(len(x))
		for _, v := range x {
			d := v - dc
			ac += d * d
		}
		ac = math.Sqrt(ac / float64(len(x)))
		return ac, dc
	}
	acR, dcR := acDC(red)
	acI, dcI := acDC(ir)
	if dcR <= 0 || dcI <= 0 || acI == 0 {
		return 0, 0
	}
	ratio = (acR / dcR) / (acI / dcI)
	return SpO2ForRatio(ratio), ratio
}

// EstimateSpO2Windows slides a window of `win` samples with hop `hop`
// over the channels and returns one SpO2 estimate per window.
func EstimateSpO2Windows(red, ir []float64, win, hop int) []float64 {
	if win <= 0 || hop <= 0 || len(red) != len(ir) {
		return nil
	}
	var out []float64
	for start := 0; start+win <= len(red); start += hop {
		s, _ := EstimateSpO2(red[start:start+win], ir[start:start+win])
		out = append(out, s)
	}
	return out
}
