package link

import "math"

// The per-lead signal-quality index is the fraction of analysis windows
// judged usable; a window fails when it is flatlined (lead-off), pinned
// near the front-end rail (saturation), or dominated by a transient far
// larger than its RMS (motion spike). These are deliberately cheap
// integer-friendly checks — the node must run them continuously.
const (
	// sqiWindowS is the quality-decision window in seconds.
	sqiWindowS = 1.0
	// flatlineRMS is the demeaned RMS (mV) below which a window counts
	// as flatlined — an attached electrode sees at least tens of µV of
	// ECG.
	flatlineRMS = 0.01
	// railMV and railFrac flag saturation: a window fails when more than
	// railFrac of its samples sit beyond ±railMV.
	railMV   = 3.0
	railFrac = 0.05
	// spikeRatio flags transients: a window fails when its peak demeaned
	// amplitude exceeds spikeRatio × RMS (QRS complexes sit near 4–6).
	spikeRatio = 8.0
	// maxAmpMV flags non-physiological excursions: a window fails when
	// its peak demeaned amplitude exceeds this — an R wave stays under
	// ~2 mV, electrode-motion artifacts do not.
	maxAmpMV = 2.5
)

// MinLeadSQI is the lowest per-lead SQI that keeps a lead in the node's
// lead combination (GoodLeads).
const MinLeadSQI = 0.7

// LeadSQI returns the fraction of windows of x judged usable, in
// [0, 1]. Short trailing windows count with proportional weight.
func LeadSQI(x []float64, fs float64) float64 {
	if len(x) == 0 || fs <= 0 {
		return 0
	}
	w := int(sqiWindowS * fs)
	if w < 2 {
		w = 2
	}
	var good, total float64
	for start := 0; start < len(x); start += w {
		end := start + w
		if end > len(x) {
			end = len(x)
		}
		weight := float64(end-start) / float64(w)
		total += weight
		if windowUsable(x[start:end]) {
			good += weight
		}
	}
	if total == 0 {
		return 0
	}
	return good / total
}

// windowUsable applies the three checks to one window.
func windowUsable(x []float64) bool {
	n := float64(len(x))
	mean := 0.0
	railed := 0
	for _, v := range x {
		mean += v
		if math.Abs(v) >= railMV {
			railed++
		}
	}
	mean /= n
	if float64(railed)/n > railFrac {
		return false
	}
	var sumsq, peak float64
	for _, v := range x {
		d := v - mean
		sumsq += d * d
		if a := math.Abs(d); a > peak {
			peak = a
		}
	}
	rms := math.Sqrt(sumsq / n)
	if rms < flatlineRMS {
		return false
	}
	if peak > spikeRatio*rms {
		return false
	}
	if peak > maxAmpMV {
		return false
	}
	return true
}

// LeadSQIs scores every lead.
func LeadSQIs(leads [][]float64, fs float64) []float64 {
	out := make([]float64, len(leads))
	for li := range leads {
		out[li] = LeadSQI(leads[li], fs)
	}
	return out
}

// GoodLeads gates the leads: true where the SQI clears MinLeadSQI. When
// no lead clears the bar the single best lead stays enabled — the node
// degrades to single-lead operation rather than to silence.
func GoodLeads(leads [][]float64, fs float64) []bool {
	sqis := LeadSQIs(leads, fs)
	out := make([]bool, len(leads))
	any := false
	for li, q := range sqis {
		if q >= MinLeadSQI {
			out[li] = true
			any = true
		}
	}
	if !any && len(leads) > 0 {
		best := 0
		for li, q := range sqis {
			if q > sqis[best] {
				best = li
			}
		}
		out[best] = true
	}
	return out
}
