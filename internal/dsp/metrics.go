package dsp

import "math"

// This file implements the reconstruction-quality metrics used in the
// compressed-sensing evaluation of Section V (Figure 5): output SNR in dB
// and the percentage root-mean-square difference (PRD) conventional in the
// ECG-compression literature (refs [4][16]). The paper's "good
// reconstruction quality" threshold is SNR >= 20 dB, equivalent to
// PRD <= 10%.

// SNRdB returns the output signal-to-noise ratio, in decibels, of the
// reconstruction xhat against the reference x:
//
//	SNR = 20 log10( ||x|| / ||x - xhat|| )
//
// A perfect reconstruction returns +Inf. It panics on length mismatch.
func SNRdB(x, xhat []float64) float64 {
	if len(x) != len(xhat) {
		panic("dsp: SNRdB length mismatch")
	}
	var num, den float64
	for i := range x {
		num += x[i] * x[i]
		d := x[i] - xhat[i]
		den += d * d
	}
	if den == 0 {
		return math.Inf(1)
	}
	if num == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(num/den)
}

// PRD returns the percentage root-mean-square difference of the
// reconstruction, 100*||x-xhat||/||x||. It panics on length mismatch.
func PRD(x, xhat []float64) float64 {
	if len(x) != len(xhat) {
		panic("dsp: PRD length mismatch")
	}
	var num, den float64
	for i := range x {
		d := x[i] - xhat[i]
		num += d * d
		den += x[i] * x[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * math.Sqrt(num/den)
}

// GoodReconstructionSNR is the paper's quality threshold: an averaged SNR
// over 20 dB "corresponds to good reconstruction quality [16]".
const GoodReconstructionSNR = 20.0

// RMSE returns the root-mean-square error between x and xhat. It panics
// on length mismatch.
func RMSE(x, xhat []float64) float64 {
	if len(x) != len(xhat) {
		panic("dsp: RMSE length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	var s float64
	for i := range x {
		d := x[i] - xhat[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}
