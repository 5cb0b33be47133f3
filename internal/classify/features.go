package classify

import (
	"wbsn/internal/dsp"
)

// BeatWindow is the fixed beat excerpt the classifier consumes: samples
// centred on the R peak, amplitude-normalised. Ref [14] classifies on a
// window wide enough to span the whole QRS plus the ST segment.
type BeatWindow struct {
	// Before and After are the sample counts taken before and after R.
	Before, After int
}

// DefaultBeatWindow returns the window used by the RP-CLASS workload:
// 250 ms before to 400 ms after the R peak at the given sampling rate.
func DefaultBeatWindow(fs float64) BeatWindow {
	return BeatWindow{Before: int(0.25 * fs), After: int(0.40 * fs)}
}

// Len returns the window length in samples.
func (w BeatWindow) Len() int { return w.Before + w.After }

// Extract cuts the beat window around sample r from x and normalises it
// to zero mean and unit peak amplitude (amplitude jitter must not drive
// the classifier). Returns nil when the window does not fit.
func (w BeatWindow) Extract(x []float64, r int) []float64 {
	return w.ExtractInto(x, r, nil)
}

// ExtractInto is Extract writing into out, which is reused when its
// capacity suffices and grown otherwise — allocation-free with a warm
// buffer. Returns nil when the window does not fit (out is untouched, so
// the caller can keep it for the next beat).
func (w BeatWindow) ExtractInto(x []float64, r int, out []float64) []float64 {
	lo, hi := r-w.Before, r+w.After
	if lo < 0 || hi > len(x) {
		return nil
	}
	if cap(out) < w.Len() {
		out = make([]float64, w.Len())
	}
	out = out[:w.Len()]
	copy(out, x[lo:hi])
	m := dsp.Mean(out)
	peak := 0.0
	for i := range out {
		out[i] -= m
		if a := abs(out[i]); a > peak {
			peak = a
		}
	}
	if peak > 0 {
		inv := 1 / peak
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
