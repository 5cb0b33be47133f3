package delineation

import (
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

func scoreQRS(t *testing.T, rec *ecg.Record, detected []int, tolMs float64) (se, ppv float64) {
	t.Helper()
	var sc PointScore
	tol := int(tolMs * rec.Fs / 1000)
	truth := rec.RPeaks()
	scorePoints(truth, detected, tol, rec.Fs, &sc)
	return sc.Se(), sc.PPV()
}

func TestPanTompkinsValidation(t *testing.T) {
	if _, err := NewPanTompkins(Config{}); err != ErrConfig {
		t.Error("missing Fs should fail")
	}
	pt, err := NewPanTompkins(Config{Fs: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := pt.DetectQRS(make([]float64, 10)); got != nil {
		t.Error("short signal should give no peaks")
	}
}

func TestPanTompkinsCleanAccuracy(t *testing.T) {
	pt, _ := NewPanTompkins(Config{Fs: 256})
	rec := ecg.Generate(ecg.Config{Seed: 1, Duration: 60})
	peaks := pt.DetectQRS(dsp.CombineRMS(rec.Clean))
	se, ppv := scoreQRS(t, rec, peaks, 50)
	if se < 0.98 || ppv < 0.98 {
		t.Errorf("Pan-Tompkins clean: Se=%.3f PPV=%.3f", se, ppv)
	}
}

func TestPanTompkinsNoisyAccuracy(t *testing.T) {
	pt, _ := NewPanTompkins(Config{Fs: 256})
	rec := ecg.Generate(ecg.Config{Seed: 2, Duration: 60, Noise: ecg.AmbulatoryNoise()})
	peaks := pt.DetectQRS(dsp.CombineRMS(rec.Leads))
	se, ppv := scoreQRS(t, rec, peaks, 50)
	if se < 0.90 || ppv < 0.90 {
		t.Errorf("Pan-Tompkins ambulatory: Se=%.3f PPV=%.3f", se, ppv)
	}
}

func TestPanTompkinsIrregularRhythm(t *testing.T) {
	// Search-back must keep up with AF's irregular RR.
	pt, _ := NewPanTompkins(Config{Fs: 256})
	rec := ecg.Generate(ecg.Config{Seed: 3, Duration: 60, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	peaks := pt.DetectQRS(dsp.CombineRMS(rec.Clean))
	se, ppv := scoreQRS(t, rec, peaks, 50)
	if se < 0.95 || ppv < 0.95 {
		t.Errorf("Pan-Tompkins AF: Se=%.3f PPV=%.3f", se, ppv)
	}
}

// The ref [11] comparison: both QRS stages (wavelet and Pan-Tompkins)
// must be clinically usable; the wavelet stage should be at least as
// good while also providing wave boundaries.
func TestComparativeQRSEvaluation(t *testing.T) {
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	pt, _ := NewPanTompkins(Config{Fs: 256})
	var seW, seP, n float64
	for seed := int64(10); seed < 13; seed++ {
		rec := ecg.Generate(ecg.Config{Seed: seed, Duration: 40, Noise: ecg.NoiseConfig{EMG: 0.04}})
		combined := dsp.CombineRMS(rec.Leads)
		beats, err := wd.Delineate(combined)
		if err != nil {
			t.Fatal(err)
		}
		var rw []int
		for _, b := range beats {
			rw = append(rw, b.R)
		}
		sw, _ := scoreQRS(t, rec, rw, 50)
		sp, _ := scoreQRS(t, rec, pt.DetectQRS(combined), 50)
		seW += sw
		seP += sp
		n++
	}
	seW /= n
	seP /= n
	if seP < 0.9 {
		t.Errorf("Pan-Tompkins baseline Se=%.3f below usability", seP)
	}
	if seW < seP-0.02 {
		t.Errorf("wavelet QRS stage (%.3f) should not trail the baseline (%.3f)", seW, seP)
	}
}

// PanTompkins below is not run by any program: the node and the gateway
// delineate with the wavelet delineator. It stays as the QRS baseline of
// the ref [11] comparison (TestComparativeQRSEvaluation and
// BenchmarkAblationQRSBaseline).

// PanTompkins implements the classic Pan-Tompkins QRS detector
// (band-pass → derivative → squaring → moving-window integration →
// adaptive thresholds with search-back), the standard baseline that the
// comparative evaluation of embedded delineation methods in ref [11]
// measures candidate algorithms against. It detects R peaks only — wave
// boundaries need one of the full delineators — and is therefore used
// here as the reference QRS stage for comparison benches.
type PanTompkins struct {
	cfg Config
	bp  dsp.Chain
}

// NewPanTompkins builds the detector for the configured sampling rate.
func NewPanTompkins(cfg Config) (*PanTompkins, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// 5-15 Hz band-pass: where QRS energy concentrates.
	hp, err := dsp.Butterworth2Highpass(5, c.Fs)
	if err != nil {
		return nil, err
	}
	lp, err := dsp.Butterworth2Lowpass(15, c.Fs)
	if err != nil {
		return nil, err
	}
	return &PanTompkins{cfg: c, bp: dsp.Chain{hp, lp}}, nil
}

// DetectQRS returns the R-peak sample indices of the signal.
func (p *PanTompkins) DetectQRS(x []float64) []int {
	if len(x) < int(p.cfg.Fs) {
		return nil
	}
	fs := p.cfg.Fs
	// Stage 1: band-pass.
	f := p.bp.Apply(x)
	// Stage 2: five-point derivative.
	n := len(f)
	deriv := make([]float64, n)
	for i := 2; i < n-2; i++ {
		deriv[i] = (2*f[i+2] + f[i+1] - f[i-1] - 2*f[i-2]) / 8
	}
	// Stage 3: squaring.
	for i := range deriv {
		deriv[i] *= deriv[i]
	}
	// Stage 4: moving-window integration over ~150 ms.
	w := int(0.150 * fs)
	if w < 1 {
		w = 1
	}
	integ := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += deriv[i]
		if i >= w {
			sum -= deriv[i-w]
		}
		integ[i] = sum / float64(w)
	}
	// Stage 5: adaptive thresholding with running signal/noise estimates
	// and search-back for missed beats.
	var peaks []int
	spki, npki := 0.0, 0.0
	// Initialise from the first two seconds.
	init := int(2 * fs)
	if init > n {
		init = n
	}
	_, maxInit := dsp.MinMax(integ[:init])
	spki = 0.25 * maxInit
	npki = 0.06 * maxInit
	threshold := npki + 0.25*(spki-npki)
	refractory := int(0.2 * fs)
	lastPeak := -refractory
	var rrAvg float64 = 0.8 * fs // running RR in samples
	searchBackFrom := 0
	for i := 1; i < n-1; i++ {
		if !(integ[i] > integ[i-1] && integ[i] >= integ[i+1]) {
			continue // not a local peak of the integrated signal
		}
		if i-lastPeak < refractory {
			continue
		}
		if integ[i] >= threshold {
			// Refine: local max of the band-passed signal near the
			// integrator peak (the integrator lags by ~w/2).
			r := refineRPeak(x, i-w/2, int(0.05*fs), n)
			peaks = append(peaks, r)
			if len(peaks) > 1 {
				rr := float64(r - peaks[len(peaks)-2])
				rrAvg = 0.875*rrAvg + 0.125*rr
			}
			lastPeak = i
			spki = 0.125*integ[i] + 0.875*spki
			searchBackFrom = i
		} else {
			npki = 0.125*integ[i] + 0.875*npki
		}
		threshold = npki + 0.25*(spki-npki)
		// Search-back: no beat for 1.66×RR — rescan at half threshold.
		if float64(i-searchBackFrom) > 1.66*rrAvg && searchBackFrom > 0 {
			best, bestV := -1, threshold/2
			for j := searchBackFrom + refractory; j < i; j++ {
				if integ[j] > bestV && j-lastPeak >= refractory {
					best, bestV = j, integ[j]
				}
			}
			if best > 0 {
				r := refineRPeak(x, best-w/2, int(0.05*fs), n)
				peaks = append(peaks, r)
				lastPeak = best
				spki = 0.25*integ[best] + 0.75*spki
				threshold = npki + 0.25*(spki-npki)
			}
			searchBackFrom = i
		}
	}
	// Peaks may be slightly out of order after refinement; enforce order
	// and uniqueness.
	out := peaks[:0]
	prev := -refractory
	for _, r := range peaks {
		if r-prev >= refractory {
			out = append(out, r)
			prev = r
		}
	}
	return out
}

// refineRPeak finds the local |max| of the raw signal in ±win around c.
func refineRPeak(x []float64, c, win, n int) int {
	lo, hi := c-win, c+win+1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return c
	}
	best := lo
	for i := lo + 1; i < hi; i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// BenchmarkAblationQRSBaseline compares the wavelet QRS stage against
// the Pan-Tompkins baseline (the ref [11] comparative evaluation).
func BenchmarkAblationQRSBaseline(b *testing.B) {
	recs := ecg.GenerateSet(ecg.Config{Duration: 30, Noise: ecg.NoiseConfig{EMG: 0.04}}, 700, 3)
	wd, err := NewWaveletDelineator(Config{Fs: 256})
	if err != nil {
		b.Fatal(err)
	}
	pt, err := NewPanTompkins(Config{Fs: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wavelet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, rec := range recs {
				if _, err := wd.Delineate(dsp.CombineRMS(rec.Leads)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pantompkins", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, rec := range recs {
				pt.DetectQRS(dsp.CombineRMS(rec.Leads))
			}
		}
	})
}
