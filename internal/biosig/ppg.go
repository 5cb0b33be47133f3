// Package biosig implements the multi-modal cardiac-parameter estimation
// of Section IV.C: a photoplethysmogram (PPG) model time-locked to the
// ECG, pulse-arrival-time (PAT) measurement, pulse-wave-velocity and
// blood-pressure estimation from PAT (ref [20]), and the noise-reduction
// techniques that exploit the time-locking of cardiac bio-signals to the
// ECG stimulus: ensemble averaging (EA) and the adaptive impulse
// correlated filter (AICF, refs [21][22][23]).
package biosig

import (
	"errors"
	"math"
	"math/rand"
)

// Errors returned by the biosig package.
var (
	ErrConfig = errors.New("biosig: invalid configuration")
	ErrNoData = errors.New("biosig: not enough data")
)

// PPGConfig parameterises PPG synthesis.
type PPGConfig struct {
	// Fs is the sampling rate in Hz.
	Fs float64
	// PathLength is the effective arterial path length in metres used by
	// the PWV relationship (default 0.65, heart-to-finger).
	PathLength float64
	// NoiseRMS is additive white noise on the PPG (default 0).
	NoiseRMS float64
	// Seed drives noise generation.
	Seed int64
}

func (c PPGConfig) withDefaults() (PPGConfig, error) {
	out := c
	if out.Fs <= 0 {
		return out, ErrConfig
	}
	if out.PathLength <= 0 {
		out.PathLength = 0.65
	}
	return out, nil
}

// PATForBP returns the pulse arrival time (seconds) corresponding to a
// systolic blood pressure (mmHg), inverting the Moens–Korteweg-style
// relation used in PAT-based BP estimation (ref [20]): the pulse-wave
// velocity grows with pressure as PWV = c0·exp(α·BP), and
// PAT = pathLength / PWV + PEP where PEP is the pre-ejection period.
func PATForBP(bp, pathLength float64) float64 {
	const (
		c0  = 1.2    // m/s at BP = 0 (model intercept)
		al  = 0.0115 // 1/mmHg
		pep = 0.06   // pre-ejection period, s
	)
	pwv := c0 * math.Exp(al*bp)
	return pathLength/pwv + pep
}

// PWVFromPAT converts a pulse arrival time to pulse-wave velocity given
// the arterial path length, after removing the pre-ejection period.
func PWVFromPAT(pat, pathLength float64) float64 {
	tt := pat - 0.06
	if tt <= 0 {
		tt = 1e-3
	}
	return pathLength / tt
}

// SynthesizePPG renders a PPG signal of n samples time-locked to the
// given ECG R-peak sample indices: each beat produces a systolic upstroke
// arriving PAT(bp[i]) seconds after its R peak, with a dicrotic secondary
// wave. bp supplies the per-beat systolic pressure (mmHg) driving the
// arrival time; pass a constant slice for stationary pressure. The
// returned onsets slice holds the exact pulse-foot sample of each beat
// (ground truth for PAT estimation).
func SynthesizePPG(n int, rPeaks []int, bp []float64, cfg PPGConfig) (ppg []float64, onsets []int, err error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if len(rPeaks) != len(bp) {
		return nil, nil, ErrConfig
	}
	ppg = make([]float64, n)
	rng := rand.New(rand.NewSource(c.Seed))
	for bi, r := range rPeaks {
		pat := PATForBP(bp[bi], c.PathLength)
		foot := r + int(pat*c.Fs+0.5)
		if foot >= n {
			continue
		}
		onsets = append(onsets, foot)
		// Systolic wave: fast rise, slower fall; dicrotic wave at +0.25 s.
		sysW := 0.09 * c.Fs // systolic width in samples
		dicW := 0.14 * c.Fs // dicrotic width
		dicDelay := 0.25 * c.Fs
		lo := foot
		hi := foot + int(0.7*c.Fs)
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			t := float64(i - foot)
			// Asymmetric systolic pulse: gamma-like rise.
			v := 0.0
			if t >= 0 {
				v = (t / sysW) * math.Exp(1-t/sysW)
			}
			d := t - dicDelay
			dic := 0.0
			if d > -3*dicW {
				dic = 0.25 * math.Exp(-d*d/(2*dicW*dicW))
			}
			ppg[i] += v + dic
		}
	}
	if c.NoiseRMS > 0 {
		for i := range ppg {
			ppg[i] += c.NoiseRMS * rng.NormFloat64()
		}
	}
	return ppg, onsets, nil
}

// DetectPulseFeet locates the foot (onset) of each PPG pulse following an
// ECG R peak: the minimum preceding the steepest upslope within the
// search window after the R peak. Returns one foot index per R peak (or
// -1 when the window is out of range).
func DetectPulseFeet(ppg []float64, rPeaks []int, fs float64) []int {
	out := make([]int, len(rPeaks))
	winLo, winHi := int(0.10*fs), int(0.55*fs)
	for bi, r := range rPeaks {
		out[bi] = -1
		lo, hi := r+winLo, r+winHi
		if lo < 1 || hi >= len(ppg) {
			continue
		}
		// Steepest upslope in the window.
		best, bestIdx := 0.0, -1
		for i := lo; i < hi; i++ {
			if d := ppg[i] - ppg[i-1]; d > best {
				best, bestIdx = d, i
			}
		}
		if bestIdx < 0 {
			continue
		}
		// Walk back to the local minimum (the pulse foot).
		f := bestIdx
		for f > lo && ppg[f-1] <= ppg[f] {
			f--
		}
		out[bi] = f
	}
	return out
}

// BPCalibration is a two-point linear calibration BP = a + b·(1/PAT)
// fitted against reference cuff measurements, the standard clinical
// procedure for PAT-based BP monitors (ref [20] compares exactly this
// against a cuff).
type BPCalibration struct {
	A, B float64
}

// FitBPCalibration least-squares fits the calibration from paired
// (PAT, reference BP) samples. At least two distinct PATs are required.
func FitBPCalibration(pats, bps []float64) (BPCalibration, error) {
	if len(pats) != len(bps) || len(pats) < 2 {
		return BPCalibration{}, ErrNoData
	}
	// Regress BP on x = 1/PAT.
	var sx, sy, sxx, sxy float64
	n := float64(len(pats))
	for i := range pats {
		if pats[i] <= 0 {
			return BPCalibration{}, ErrNoData
		}
		x := 1 / pats[i]
		sx += x
		sy += bps[i]
		sxx += x * x
		sxy += x * bps[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return BPCalibration{}, ErrNoData
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	return BPCalibration{A: a, B: b}, nil
}

// Estimate returns the calibrated BP for a PAT measurement.
func (c BPCalibration) Estimate(pat float64) float64 {
	if pat <= 0 {
		return c.A
	}
	return c.A + c.B/pat
}
