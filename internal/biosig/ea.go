package biosig

// This file implements the two ECG-time-locked noise-reduction methods of
// Section IV.C. "Most cardiac bio-signals originate from the response to
// the bioelectric stimuli reflected in the ECG" and are therefore
// time-locked to it; noise is not. Ensemble averaging (EA) exploits this
// by averaging beat-aligned windows — at the cost of losing beat-to-beat
// variation — while the adaptive impulse correlated filter (AICF,
// refs [22][23]) tracks dynamic changes with an LMS-adapted template.

// EnsembleAverage aligns windows of length w starting `offset` samples
// after each event index (typically ECG R peaks) and returns their mean.
// Windows that do not fit inside the signal are skipped; nil is returned
// when no window fits.
func EnsembleAverage(x []float64, events []int, offset, w int) []float64 {
	if w <= 0 {
		return nil
	}
	sum := make([]float64, w)
	count := 0
	for _, e := range events {
		lo := e + offset
		if lo < 0 || lo+w > len(x) {
			continue
		}
		for i := 0; i < w; i++ {
			sum[i] += x[lo+i]
		}
		count++
	}
	if count == 0 {
		return nil
	}
	inv := 1 / float64(count)
	for i := range sum {
		sum[i] *= inv
	}
	return sum
}

// AICF is the adaptive impulse correlated filter of Laguna et al.
// (ref [22]): a transversal filter whose reference input is an impulse
// train at the event (beat) instants. Because the reference is an
// impulse, the LMS weight update reduces to a per-beat exponential
// template update
//
//	T ← T + μ·(x_beat − T)
//
// which converges to the ensemble average for stationary signals but,
// unlike EA, tracks morphology changes with time constant ≈ 1/μ beats.
type AICF struct {
	mu       float64
	offset   int
	template []float64
	beats    int
}

// NewAICF creates a filter with template length w starting `offset`
// samples after each event, adapting with step mu in (0, 1].
func NewAICF(w, offset int, mu float64) (*AICF, error) {
	if w <= 0 || mu <= 0 || mu > 1 {
		return nil, ErrConfig
	}
	return &AICF{mu: mu, offset: offset, template: make([]float64, w)}, nil
}

// Template returns a copy of the current template estimate.
func (f *AICF) Template() []float64 {
	out := make([]float64, len(f.template))
	copy(out, f.template)
	return out
}

// Update absorbs the beat window at event e from x and returns the
// post-update template (the filter's denoised output for this beat), or
// nil when the window does not fit.
func (f *AICF) Update(x []float64, e int) []float64 {
	lo := e + f.offset
	w := len(f.template)
	if lo < 0 || lo+w > len(x) {
		return nil
	}
	if f.beats == 0 {
		copy(f.template, x[lo:lo+w])
	} else {
		for i := 0; i < w; i++ {
			f.template[i] += f.mu * (x[lo+i] - f.template[i])
		}
	}
	f.beats++
	return f.Template()
}

// Filter runs the AICF over all events in order and returns the denoised
// beat windows (one per event whose window fits).
func (f *AICF) Filter(x []float64, events []int) [][]float64 {
	var out [][]float64
	for _, e := range events {
		if t := f.Update(x, e); t != nil {
			out = append(out, t)
		}
	}
	return out
}
