// Package af implements the real-time atrial-fibrillation detector of
// ref [25] (Rincón et al., EMBC 2012) described in Section V of the
// paper: the ECG delineation output feeds an analysis of "the regularity
// of the heart beat rate as well as the shape of the P wave, which
// constitute two characteristic irregularities of AF episodes", and a
// low-complexity fuzzy classifier fuses the evidence. The reference
// implementation reports 96% sensitivity and 93% specificity while
// running in real time on the node.
package af

import (
	"math"

	"wbsn/internal/delineation"
)

// The node decides over windows of WindowBeats consecutive beats,
// hopping by half a window, and declares a window AF when its score
// reaches Threshold.
const (
	WindowBeats = 24
	Threshold   = 0.5
)

// Features are the per-window AF evidence values.
type Features struct {
	// NRMSSD is the RMS of successive RR differences normalised by the
	// mean RR — the classic AF irregularity measure.
	NRMSSD float64
	// TPR is the turning-point ratio of the RR series: the fraction of
	// interior beats whose RR is a local extremum. Random (AF) sequences
	// approach 2/3; regular rhythms are much lower.
	TPR float64
	// RREntropy is the Shannon entropy (bits) of the RR histogram over
	// the window, normalised to [0,1] by the maximum possible entropy.
	RREntropy float64
	// PAbsence is the fraction of beats in the window without a detected
	// P wave.
	PAbsence float64
}

// ExtractFeatures computes the AF features over one window of beats.
// It needs at least three beats; fewer return zero features.
func ExtractFeatures(beats []delineation.BeatFiducials, fs float64) Features {
	var f Features
	if len(beats) < 3 {
		return f
	}
	rr := make([]float64, 0, len(beats)-1)
	for i := 1; i < len(beats); i++ {
		rr = append(rr, float64(beats[i].R-beats[i-1].R)/fs)
	}
	mean := 0.0
	for _, v := range rr {
		mean += v
	}
	mean /= float64(len(rr))
	if mean <= 0 {
		return f
	}
	// RMSSD.
	ss := 0.0
	for i := 1; i < len(rr); i++ {
		d := rr[i] - rr[i-1]
		ss += d * d
	}
	f.NRMSSD = math.Sqrt(ss/float64(len(rr)-1)) / mean
	// Turning-point ratio.
	turns := 0
	for i := 1; i < len(rr)-1; i++ {
		if (rr[i] > rr[i-1] && rr[i] > rr[i+1]) || (rr[i] < rr[i-1] && rr[i] < rr[i+1]) {
			turns++
		}
	}
	if len(rr) > 2 {
		f.TPR = float64(turns) / float64(len(rr)-2)
	}
	// Shannon entropy over an 8-bin histogram of RR around the mean.
	const bins = 8
	hist := make([]int, bins)
	for _, v := range rr {
		// Bin over ±40% of the mean RR.
		rel := (v/mean - 0.6) / 0.8
		b := int(rel * bins)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		hist[b]++
	}
	h := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(len(rr))
		h -= p * math.Log2(p)
	}
	f.RREntropy = h / math.Log2(bins)
	// P-wave absence.
	absent := 0
	for _, b := range beats {
		if b.P.Peak < 0 {
			absent++
		}
	}
	f.PAbsence = float64(absent) / float64(len(beats))
	return f
}

// Membership functions of the fuzzy classifier: smooth ramps mapping a
// feature to a degree of "AF-ness" in [0,1].
func ramp(v, lo, hi float64) float64 {
	if v <= lo {
		return 0
	}
	if v >= hi {
		return 1
	}
	return (v - lo) / (hi - lo)
}

// Score fuses the features into an AF likelihood in [0,1]. The fuzzy
// rules follow ref [25]: strong evidence requires both an irregular
// rhythm AND a missing P wave; either alone yields an intermediate score.
func Score(f Features) float64 {
	// Rhythm irregularity: OR-combination (max) of the three RR views.
	irr := math.Max(ramp(f.NRMSSD, 0.06, 0.18),
		math.Max(ramp(f.TPR, 0.40, 0.62), ramp(f.RREntropy, 0.45, 0.75)))
	noP := ramp(f.PAbsence, 0.25, 0.75)
	// Fuzzy AND (product) of the two evidence classes, with a sub-
	// threshold floor on rhythm-only evidence: extreme irregularity alone
	// (e.g. frequent ectopy) raises suspicion but cannot cross the AF
	// threshold without the missing-P confirmation — the property that
	// keeps specificity high on ectopic sinus rhythm.
	and := irr * noP
	rhythmOnly := 0.45 * irr
	return math.Max(and, rhythmOnly)
}

// Decision is one windowed AF verdict.
type Decision struct {
	// StartBeat indexes the first beat of the window.
	StartBeat int
	// Score is the fuzzy AF likelihood.
	Score float64
	// AF is Score >= Threshold.
	AF bool
	// Features are the window's evidence values.
	Features Features
}

// RecordVerdict reduces windowed decisions to one per-record verdict: AF
// when at least frac of the windows vote AF (default majority vote with
// frac=0.5).
func RecordVerdict(decisions []Decision, frac float64) bool {
	if len(decisions) == 0 {
		return false
	}
	if frac <= 0 {
		frac = 0.5
	}
	af := 0
	for _, d := range decisions {
		if d.AF {
			af++
		}
	}
	return float64(af) >= frac*float64(len(decisions))
}
