package delineation

import (
	"math"

	"wbsn/internal/dsp"
)

// The clinical interval measurements below are derived from delineated
// fiducials — the "information [that] enables the diagnosis of a large
// set of cardiac conditions" (Section III.C). No program computes them (a
// delineation-mode node transmits the fiducials); TestMeasureIntervals
// checks that they recover the generator's construction.

// Intervals holds one beat's interval measurements in seconds. NaN marks
// intervals whose fiducials were not detected.
type Intervals struct {
	// PR is P onset to QRS onset.
	PR float64
	// QRS is QRS onset to QRS offset.
	QRS float64
	// QT is QRS onset to T offset.
	QT float64
	// QTc is the Bazett-corrected QT (QT/√RR); NaN for the first beat
	// (no preceding RR) or missing fiducials.
	QTc float64
	// RR is the interval to the previous beat.
	RR float64
}

// MeasureIntervals converts a delineated beat sequence into per-beat
// interval measurements at the given sampling rate.
func MeasureIntervals(beats []BeatFiducials, fs float64) []Intervals {
	out := make([]Intervals, len(beats))
	nan := math.NaN()
	for i, b := range beats {
		iv := Intervals{PR: nan, QRS: nan, QT: nan, QTc: nan, RR: nan}
		if b.P.On >= 0 && b.QRS.On >= 0 {
			iv.PR = float64(b.QRS.On-b.P.On) / fs
		}
		if b.QRS.On >= 0 && b.QRS.Off >= 0 {
			iv.QRS = float64(b.QRS.Off-b.QRS.On) / fs
		}
		if b.QRS.On >= 0 && b.T.Off >= 0 {
			iv.QT = float64(b.T.Off-b.QRS.On) / fs
		}
		if i > 0 {
			iv.RR = float64(b.R-beats[i-1].R) / fs
			if !math.IsNaN(iv.QT) && iv.RR > 0 {
				iv.QTc = iv.QT / math.Sqrt(iv.RR)
			}
		}
		out[i] = iv
	}
	return out
}

// IntervalSummary aggregates per-beat intervals into means over the
// defined (non-NaN) values, for the record-level report.
type IntervalSummary struct {
	MeanPR, MeanQRS, MeanQT, MeanQTc, MeanRR float64
	// Beats counts the measured beats.
	Beats int
}

// Summarize averages the defined intervals.
func Summarize(ivs []Intervals) IntervalSummary {
	var s IntervalSummary
	s.Beats = len(ivs)
	mean := func(get func(Intervals) float64) float64 {
		var vals []float64
		for _, iv := range ivs {
			if v := get(iv); !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return math.NaN()
		}
		return dsp.Mean(vals)
	}
	s.MeanPR = mean(func(iv Intervals) float64 { return iv.PR })
	s.MeanQRS = mean(func(iv Intervals) float64 { return iv.QRS })
	s.MeanQT = mean(func(iv Intervals) float64 { return iv.QT })
	s.MeanQTc = mean(func(iv Intervals) float64 { return iv.QTc })
	s.MeanRR = mean(func(iv Intervals) float64 { return iv.RR })
	return s
}
