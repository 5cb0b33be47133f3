// Package dsp provides the signal-processing helpers the node and the
// gateway share: per-sample RMS lead combination (Section III.B of the
// paper), moving statistics, the periodogram behind the HRV bands, and
// the SNR/PRD reconstruction metrics of the compressed-sensing
// evaluation (Section V).
package dsp

import "math"

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// samples.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// RMS returns the root-mean-square of x, or 0 for an empty slice.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// MinMax returns the minimum and maximum of x. It panics on empty input.
func MinMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		panic("dsp: MinMax of empty slice")
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ArgMax returns the index of the maximum element of x (-1 if empty).
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length signals, or 0 if either is constant. It panics on length
// mismatch.
func Correlation(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dsp: Correlation length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}
