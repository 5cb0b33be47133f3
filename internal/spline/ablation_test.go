package spline

import (
	"math"
	"sort"
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/morpho"
)

// BenchmarkAblationBaselineRemoval compares the paper's two
// baseline-wander estimators (Section III.B: the morphological
// open/close of ref [9], which the node runs, and the PR-knot cubic
// spline of ref [10]) against a sliding-median estimator and a 0.5 Hz
// high-pass, scoring the residual against the known synthetic drift.
func BenchmarkAblationBaselineRemoval(b *testing.B) {
	rec := ecg.Generate(ecg.Config{
		Seed: 91, Duration: 30,
		Noise: ecg.NoiseConfig{BaselineWander: 0.3},
	})
	fs := rec.Fs
	lead := rec.Leads[0]
	clean := rec.Clean[0]
	qrs := rec.RPeaks()
	score := func(corrected []float64) float64 {
		// Residual drift: corrected minus clean, RMS over the interior.
		res := 0.0
		n := 0
		for i := 512; i < len(lead)-512; i++ {
			d := corrected[i] - clean[i]
			res += d * d
			n++
		}
		return math.Sqrt(res / float64(n))
	}
	hp, err := dsp.Butterworth2Highpass(0.5, fs)
	if err != nil {
		b.Fatal(err)
	}
	corrMorph := make([]float64, len(lead))
	var scratch morpho.Scratch
	var rmsMorph, rmsSpline, rmsMedian, rmsHP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := morpho.RemoveBaselineInto(lead, morpho.FilterConfig{Fs: fs}, corrMorph, &scratch); err != nil {
			b.Fatal(err)
		}
		rmsMorph = score(corrMorph)
		corrSpline, _ := RemoveBaseline(lead, qrs, fs)
		rmsSpline = score(corrSpline)
		base := slidingMedian(lead, int(0.6*fs)|1)
		corrMed := make([]float64, len(lead))
		for j := range lead {
			corrMed[j] = lead[j] - base[j]
		}
		rmsMedian = score(corrMed)
		rmsHP = score(hp.Apply(lead))
	}
	b.ReportMetric(rmsMorph*1000, "resid-mV-morph")
	b.ReportMetric(rmsSpline*1000, "resid-mV-spline")
	b.ReportMetric(rmsMedian*1000, "resid-mV-median")
	b.ReportMetric(rmsHP*1000, "resid-mV-highpass")
}

// slidingMedian returns the median of x over a centred window of k
// samples (k odd), replicating the edge samples.
func slidingMedian(x []float64, k int) []float64 {
	out := make([]float64, len(x))
	win := make([]float64, k)
	for i := range x {
		for j := range win {
			win[j] = x[min(max(i-k/2+j, 0), len(x)-1)]
		}
		sort.Float64s(win)
		out[i] = win[k/2]
	}
	return out
}
