package delineation

import (
	"math"

	"wbsn/internal/dsp"
	"wbsn/internal/morpho"
)

// MorphDelineator implements the morphological-transform delineator of
// ref [13] (Sun, Chan, Krishnan 2005), Section III.C's alternative to the
// wavelet approach: peaks of characteristic waves appear as extrema of
// the multiscale morphological derivative (MMD), and wave boundaries as
// the flanking opposite extrema. QRS complexes are found at a small scale
// (where only sharp waves respond), P and T waves at a larger scale
// between consecutive QRS complexes. This is the "3L-MMD" application of
// Figure 7 when run on each of three leads.
type MorphDelineator struct {
	cfg Config
	// qrsScale and waveScale are the MMD scales in samples.
	qrsScale, waveScale int
}

// NewMorphDelineator validates the configuration and returns a
// delineator. The MMD scales default to 20 ms (QRS) and 70 ms (P/T).
func NewMorphDelineator(cfg Config) (*MorphDelineator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &MorphDelineator{cfg: c}
	d.qrsScale = maxInt(2, int(0.020*c.Fs))
	d.waveScale = maxInt(4, int(0.070*c.Fs))
	return d, nil
}

func (d *MorphDelineator) ms(v float64) int { return int(v * d.cfg.Fs / 1000) }

// Delineate processes one signal and returns the detected beats. The
// input is expected to be conditioned (morpho.FilterLeads, then the RMS
// lead combination, as cmd/delineate does); the MMD transform itself is
// insensitive to slow drift but the adaptive thresholds work best on a
// conditioned signal.
func (d *MorphDelineator) Delineate(x []float64) ([]BeatFiducials, error) {
	if len(x) < 4*d.waveScale {
		return nil, nil
	}
	mQRS, err := morpho.MMDTransform(x, d.qrsScale)
	if err != nil {
		return nil, err
	}
	mWave, err := morpho.MMDTransform(x, d.waveScale)
	if err != nil {
		return nil, err
	}
	rs := d.detectQRS(x, mQRS)
	var beats []BeatFiducials
	for i, r := range rs {
		b := BeatFiducials{R: r}
		b.QRS = d.bracketQRS(mQRS, r)
		b.QRS.Peak = r
		prevEnd := 0
		if i > 0 {
			prevEnd = rs[i-1]
		}
		nextStart := len(x)
		if i+1 < len(rs) {
			nextStart = rs[i+1]
		}
		// T wave: dominant MMD extremum after QRS offset.
		tFrom := b.QRS.Off + d.ms(60)
		tTo := minInt(r+d.ms(d.cfg.TSearchMs), nextStart-d.ms(80))
		b.T = d.bracketWave(mWave, tFrom, tTo)
		// P wave: dominant extremum before QRS onset.
		pFrom := maxInt(r-d.ms(d.cfg.PSearchMs), prevEnd+d.ms(120))
		pTo := b.QRS.On - d.ms(15)
		b.P = d.bracketWave(mWave, pFrom, pTo)
		beats = append(beats, b)
	}
	return beats, nil
}

// detectQRS finds R peaks as MMD minima below a block-adaptive negative
// threshold (ref [13]: "minima in the transformed signal indicate the
// presence of peaks in the original wave"), with refractory blanking and
// a local-peak refinement on the raw signal.
func (d *MorphDelineator) detectQRS(x, m []float64) []int {
	n := len(m)
	refractory := d.ms(d.cfg.RefractoryMs)
	block := int(2 * d.cfg.Fs)
	if block < 1 {
		block = 1
	}
	var rs []int
	lastR := -refractory
	for start := 0; start < n; start += block {
		end := minInt(start+block, n)
		// Adaptive threshold on the negative excursions.
		minV := 0.0
		for _, v := range m[start:end] {
			if v < minV {
				minV = v
			}
		}
		thr := 0.4 * minV // negative
		if thr >= 0 {
			continue
		}
		i := start
		for i < end {
			if m[i] > thr || i-lastR < refractory {
				i++
				continue
			}
			// Walk to the local minimum of the MMD response.
			p := i
			for p+1 < n && m[p+1] < m[p] {
				p++
			}
			// Refine to the raw-signal local max within the QRS scale.
			r := p
			lo, hi := maxInt(0, p-d.qrsScale), minInt(n, p+d.qrsScale+1)
			rel := dsp.ArgMax(x[lo:hi])
			if rel >= 0 {
				r = lo + rel
			}
			if r-lastR >= refractory {
				rs = append(rs, r)
				lastR = r
			}
			i = p + refractory
		}
	}
	return rs
}

// bracketQRS finds QRS onset/offset as the positive MMD maxima flanking
// the deep minimum at the R peak ("maxima delimit the start and end point
// of each wave").
func (d *MorphDelineator) bracketQRS(m []float64, r int) Wave {
	n := len(m)
	win := d.ms(90)
	out := Wave{On: -1, Peak: r, Off: -1}
	// Left flanking maximum.
	onIdx, onVal := -1, 0.0
	for j := maxInt(1, r-win); j < r; j++ {
		if m[j] > m[j-1] && m[j] >= m[j+1] && m[j] > onVal {
			onVal, onIdx = m[j], j
		}
	}
	offIdx, offVal := -1, 0.0
	for j := r + 1; j < minInt(n-1, r+win); j++ {
		if m[j] > m[j-1] && m[j] >= m[j+1] && m[j] > offVal {
			offVal, offIdx = m[j], j
		}
	}
	if onIdx >= 0 {
		out.On = onIdx
	} else {
		out.On = maxInt(0, r-d.ms(50))
	}
	if offIdx >= 0 {
		out.Off = offIdx
	} else {
		out.Off = minInt(n-1, r+d.ms(50))
	}
	return out
}

// bracketWave locates a smooth wave in [from, to) as the dominant MMD
// extremum with its flanking opposite extrema as boundaries. Returns an
// absent wave when the window is degenerate or the response is too weak.
func (d *MorphDelineator) bracketWave(m []float64, from, to int) Wave {
	none := Wave{On: -1, Peak: -1, Off: -1}
	if from < 1 {
		from = 1
	}
	if to > len(m)-1 {
		to = len(m) - 1
	}
	if to-from < 3 {
		return none
	}
	// A positive wave gives a negative MMD extremum at its peak (ref
	// [13]: "minima ... indicate the presence of peaks"), while the
	// flanks of a neighbouring QRS leak in as positive values; search the
	// deepest local minimum first and fall back to the strongest positive
	// extremum only for inverted waves.
	peak, val := -1, 0.0
	for j := from; j < to; j++ {
		if m[j] < m[j-1] && m[j] <= m[j+1] && -m[j] > val {
			val, peak = -m[j], j
		}
	}
	if peak < 0 {
		for j := from; j < to; j++ {
			if m[j] > m[j-1] && m[j] >= m[j+1] && m[j] > val {
				val, peak = m[j], j
			}
		}
	}
	if peak < 0 {
		return none
	}
	val = math.Abs(m[peak])
	// Reject weak responses relative to the strongest response in a
	// wider neighbourhood (noise floor).
	lo, hi := maxInt(0, from-(to-from)), minInt(len(m), to+(to-from))
	strongest := 0.0
	for _, v := range m[lo:hi] {
		if a := math.Abs(v); a > strongest {
			strongest = a
		}
	}
	if val < 0.05*strongest {
		return none
	}
	sign := 1.0
	if m[peak] > 0 {
		sign = -1 // inverted wave: boundaries are minima
	}
	margin := to - from
	onIdx := -1
	onVal := 0.0
	for j := peak - 1; j > maxInt(1, peak-margin); j-- {
		v := m[j] * sign // flanking extrema have opposite sign to peak
		if v > onVal && v > 0 {
			onVal, onIdx = v, j
		}
		// Stop early when far past the first clear flank.
		if onIdx >= 0 && peak-j > 2*d.waveScale {
			break
		}
	}
	offIdx := -1
	offVal := 0.0
	for j := peak + 1; j < minInt(len(m)-1, peak+margin); j++ {
		v := m[j] * sign
		if v > offVal && v > 0 {
			offVal, offIdx = v, j
		}
		if offIdx >= 0 && j-peak > 2*d.waveScale {
			break
		}
	}
	if onIdx < 0 {
		onIdx = maxInt(0, peak-d.waveScale)
	}
	if offIdx < 0 {
		offIdx = minInt(len(m)-1, peak+d.waveScale)
	}
	return Wave{On: onIdx, Peak: peak, Off: offIdx}
}
