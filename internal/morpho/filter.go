package morpho

// This file implements the two-stage morphological conditioning filter of
// ref [9] (Sun, Chan, Krishnan, "ECG signal conditioning by morphological
// filtering", Computers in Biology and Medicine 2002), the filtering
// strategy Section III.B of the paper describes as "a filtering technique
// based on the application of two morphological operators (erosion and
// dilation), which removes unwanted components from the input signal".
//
// Stage 1 — baseline correction: the baseline is estimated by an opening
// followed by a closing with structuring elements sized to straddle the
// characteristic-wave durations (L0 ≈ 0.2·fs suppresses QRS and P/T
// peaks, Lc = 1.5·L0 closes the remaining pits) and subtracted.
//
// Stage 2 — noise suppression: the corrected signal is filtered by the
// average of an opening and a closing with a short SE pair, which clips
// impulsive noise in both polarities while preserving wave morphology.

// FilterConfig parameterises the morphological conditioning filter.
type FilterConfig struct {
	// Fs is the sampling rate in Hz. Required.
	Fs float64
	// BaselineSE is the opening SE length for baseline estimation in
	// samples; 0 selects the ref [9] default of 0.2*Fs.
	BaselineSE int
	// NoiseSE is the short SE length for noise suppression in samples;
	// 0 selects the default of 3 (≈12 ms at 256 Hz).
	NoiseSE int
}

// WithDefaults resolves the zero-means-default fields to their
// effective values (the SE lengths the filter will actually run with),
// for callers that orchestrate the filter stages themselves.
func (c FilterConfig) WithDefaults() FilterConfig { return c.withDefaults() }

func (c *FilterConfig) withDefaults() FilterConfig {
	out := *c
	if out.BaselineSE <= 0 {
		out.BaselineSE = int(0.2*out.Fs + 0.5)
		if out.BaselineSE < 3 {
			out.BaselineSE = 3
		}
	}
	if out.NoiseSE <= 0 {
		out.NoiseSE = 3
	}
	return out
}

// FilterLeads applies the conditioning filter (FilterInto) independently
// to every lead — the 3L-MF multi-lead workload. Lead lengths may differ.
func FilterLeads(leads [][]float64, cfg FilterConfig) ([][]float64, error) {
	var s Scratch
	return FilterLeadsInto(leads, cfg, nil, &s)
}

// BaselineEstimateInto writes the morphological baseline estimate of x
// into out (len(x)): opening with SE length L0 followed by closing with
// 1.5*L0. Subtracting it removes baseline wander without distorting the
// QRS complex. Intermediates come from s; out must be caller-owned and
// must not alias x.
func BaselineEstimateInto(x []float64, cfg FilterConfig, out []float64, s *Scratch) error {
	c := cfg.withDefaults()
	l0 := c.BaselineSE
	opened := s.buffer(1, len(x))
	if err := OpenFlatInto(x, l0, opened, s); err != nil {
		return err
	}
	return CloseFlatInto(opened, l0+l0/2, out, s)
}

// RemoveBaselineInto writes x minus its morphological baseline estimate
// into out (len(x)). out may alias x (in-place correction).
func RemoveBaselineInto(x []float64, cfg FilterConfig, out []float64, s *Scratch) error {
	base := s.buffer(2, len(x))
	if err := BaselineEstimateInto(x, cfg, base, s); err != nil {
		return err
	}
	for i := range x {
		out[i] = x[i] - base[i]
	}
	return nil
}

// SuppressNoiseInto applies the open/close averaging stage of ref [9]
// into out (len(x)): the result is (opening + closing)/2 with a short
// flat SE, clipping impulsive artifacts of both polarities. out may
// alias x.
func SuppressNoiseInto(x []float64, cfg FilterConfig, out []float64, s *Scratch) error {
	c := cfg.withDefaults()
	o := s.buffer(1, len(x))
	if err := OpenFlatInto(x, c.NoiseSE, o, s); err != nil {
		return err
	}
	cl := s.buffer(2, len(x))
	if err := CloseFlatInto(x, c.NoiseSE, cl, s); err != nil {
		return err
	}
	for i := range x {
		out[i] = 0.5 * (o[i] + cl[i])
	}
	return nil
}

// FilterInto runs the full two-stage conditioning filter (baseline
// correction then noise suppression) into out (len(x)), allocation-free
// with a warm scratch. This is the "3L-MF" kernel of Figure 7 when
// applied to each of the three leads. out may alias x.
func FilterInto(x []float64, cfg FilterConfig, out []float64, s *Scratch) error {
	if len(out) != len(x) {
		return ErrBadSE
	}
	corrected := s.buffer(3, len(x))
	if err := RemoveBaselineInto(x, cfg, corrected, s); err != nil {
		return err
	}
	return SuppressNoiseInto(corrected, cfg, out, s)
}

// FilterLeadsInto is FilterLeads reusing out's backing storage when its
// capacity suffices. It returns the (possibly regrown) lead set.
func FilterLeadsInto(leads [][]float64, cfg FilterConfig, out [][]float64, s *Scratch) ([][]float64, error) {
	if cap(out) < len(leads) {
		grown := make([][]float64, len(leads))
		copy(grown, out)
		out = grown
	}
	out = out[:len(leads)]
	for i, l := range leads {
		if cap(out[i]) < len(l) {
			out[i] = make([]float64, len(l))
		}
		out[i] = out[i][:len(l)]
		if err := FilterInto(l, cfg, out[i], s); err != nil {
			return nil, err
		}
	}
	return out, nil
}
