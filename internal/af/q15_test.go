package af

import (
	"wbsn/internal/delineation"
	"wbsn/internal/fixedpt"
)

// The integer-only feature extraction below is the form an embedded AF
// detector runs (Section V: the detector operates "in real-time on an
// embedded device" with integer arithmetic only). RR intervals stay in
// sample counts; square roots and logarithms come from internal/fixedpt.
// Features are returned as Q15 in the same ranges as the float
// extractor, so the same fuzzy rules apply. No program runs it; the
// tests check that it reaches the float extractor's verdicts.

// FeaturesQ15 are the Q15-scaled AF evidence values.
type FeaturesQ15 struct {
	// NRMSSD, TPR, RREntropy, PAbsence mirror Features, each as Q15 of
	// the float value (NRMSSD is clamped at 1.0; RREntropy is already
	// normalised to [0,1]).
	NRMSSD, TPR, RREntropy, PAbsence fixedpt.Q15
}

// Float converts the Q15 features to the float form consumed by the
// fuzzy classifier.
func (f FeaturesQ15) Float() Features {
	return Features{
		NRMSSD:    f.NRMSSD.Float(),
		TPR:       f.TPR.Float(),
		RREntropy: f.RREntropy.Float(),
		PAbsence:  f.PAbsence.Float(),
	}
}

// ExtractFeaturesQ15 computes the AF features with integer arithmetic
// only. RR intervals are taken directly as sample-count differences of
// the detected R peaks. Fewer than three beats return zero features.
func ExtractFeaturesQ15(beats []delineation.BeatFiducials, fs float64) FeaturesQ15 {
	var out FeaturesQ15
	if len(beats) < 3 {
		return out
	}
	_ = fs // sample-domain arithmetic is rate-free; kept for API symmetry
	rr := make([]int64, 0, len(beats)-1)
	for i := 1; i < len(beats); i++ {
		rr = append(rr, int64(beats[i].R-beats[i-1].R))
	}
	var sum int64
	for _, v := range rr {
		sum += v
	}
	mean := sum / int64(len(rr))
	if mean <= 0 {
		return out
	}
	// NRMSSD: sqrt(mean of squared successive differences) / mean RR.
	var ss int64
	for i := 1; i < len(rr); i++ {
		d := rr[i] - rr[i-1]
		ss += d * d
	}
	msd := uint64(ss / int64(len(rr)-1))
	rmssd := int64(fixedpt.ISqrt64(msd << 16)) // ×256 for fractional headroom
	nrm := (rmssd << 15) / (mean << 8)         // Q15 of rmssd/mean
	if nrm > 32767 {
		nrm = 32767
	}
	out.NRMSSD = fixedpt.Q15(nrm)
	// Turning-point ratio: pure integer counting.
	turns := 0
	for i := 1; i < len(rr)-1; i++ {
		if (rr[i] > rr[i-1] && rr[i] > rr[i+1]) || (rr[i] < rr[i-1] && rr[i] < rr[i+1]) {
			turns++
		}
	}
	if len(rr) > 2 {
		out.TPR = fixedpt.Q15((int64(turns) << 15) / int64(len(rr)-2))
	}
	// Shannon entropy of the 8-bin RR histogram around the mean, via the
	// integer log2 (bins span ±40% of the mean RR, as the float path).
	const bins = 8
	hist := make([]int64, bins)
	for _, v := range rr {
		// rel = (v/mean - 0.6)/0.8 in Q15: ((v<<15)/mean - 0.6Q15) / 0.8.
		rel := (v << 15) / mean
		b := ((rel - 19661) * bins) / 26214 // 0.6, 0.8 in Q15
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		hist[b]++
	}
	probs := make([]fixedpt.Q15, bins)
	for i, c := range hist {
		probs[i] = fixedpt.Q15((c << 15) / int64(len(rr)))
	}
	hQ11 := fixedpt.EntropyBitsQ15(probs) // Q11 bits
	// Normalise by log2(8)=3 bits: Q15 = hQ11 / (3<<11) << 15.
	norm := (int64(hQ11) << 15) / (3 << 11)
	if norm > 32767 {
		norm = 32767
	}
	if norm < 0 {
		norm = 0
	}
	out.RREntropy = fixedpt.Q15(norm)
	// P-wave absence: integer fraction.
	absent := int64(0)
	for _, b := range beats {
		if b.P.Peak < 0 {
			absent++
		}
	}
	out.PAbsence = fixedpt.Q15((absent << 15) / int64(len(beats)))
	return out
}
