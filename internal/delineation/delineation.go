// Package delineation locates the fiducial points of each heartbeat —
// onset, peak and end of the P wave, QRS complex and T wave (Figure 2 of
// the paper) — implementing both strategies surveyed in Section III.C:
//
//   - the wavelet-based delineator of ref [12] (Rincón et al., BSN 2009),
//     which finds QRS complexes as modulus-maxima pairs of the à-trous
//     quadratic-spline wavelet transform and brackets every wave by
//     threshold crossings of the transform at the scale where that wave's
//     frequency content peaks;
//
//   - the morphological delineator of ref [13], which finds wave peaks as
//     minima of the multiscale morphological-derivative transform and
//     wave boundaries as the flanking maxima.
//
// Both run in streaming-compatible windowed form with integer-friendly
// arithmetic; evaluation against ground truth lives in eval.go.
package delineation

import (
	"errors"
	"math"
	"sync"

	"wbsn/internal/dsp"
	"wbsn/internal/wavelet"
)

// ErrConfig is returned for invalid delineator configurations.
var ErrConfig = errors.New("delineation: invalid configuration")

// Wave identifies one detected characteristic wave.
type Wave struct {
	// On, Peak, Off are sample indices; On/Off are -1 when the wave's
	// boundaries could not be established, Peak is always valid.
	On, Peak, Off int
}

// BeatFiducials is the delineation output for a single detected beat.
type BeatFiducials struct {
	// R is the R-peak sample index.
	R int
	// QRS is the QRS complex (On/Peak/Off with Peak == R).
	QRS Wave
	// P and T hold the detected P and T waves; a Peak of -1 means the
	// wave was not found (e.g. absent P during atrial fibrillation).
	P, T Wave
}

// Config parameterises the wavelet delineator.
type Config struct {
	// Fs is the sampling rate in Hz. Required.
	Fs float64
	// QRSThreshold scales the adaptive QRS detection threshold relative
	// to the RMS of the detection scale (default 2.6).
	QRSThreshold float64
	// RefractoryMs is the post-detection blanking interval (default 250).
	RefractoryMs float64
	// BoundaryFrac is the fraction of the bracketing modulus maximum at
	// which a wave's onset/offset is declared (default 0.12 QRS, applied
	// as-is to QRS; P and T use 0.25).
	BoundaryFrac float64
	// PSearchMs and TSearchMs bound the P and T search windows relative
	// to the QRS (defaults 240 and 480).
	PSearchMs, TSearchMs float64
	// MinWaveAmp is the minimum |transform| for accepting a P or T wave,
	// relative to the QRS modulus maximum (default 0.05). It rejects
	// noise "waves" when the atria do not contract (AF).
	MinWaveAmp float64
}

func (c Config) withDefaults() (Config, error) {
	out := c
	if out.Fs <= 0 {
		return out, ErrConfig
	}
	if out.QRSThreshold <= 0 {
		out.QRSThreshold = 2.6
	}
	if out.RefractoryMs <= 0 {
		out.RefractoryMs = 250
	}
	if out.BoundaryFrac <= 0 {
		out.BoundaryFrac = 0.12
	}
	if out.PSearchMs <= 0 {
		out.PSearchMs = 240
	}
	if out.TSearchMs <= 0 {
		out.TSearchMs = 480
	}
	if out.MinWaveAmp <= 0 {
		out.MinWaveAmp = 0.05
	}
	return out, nil
}

// WaveletDelineator implements ref [12]. It is safe for concurrent use:
// per-call transform buffers come from an internal pool.
type WaveletDelineator struct {
	cfg  Config
	pool sync.Pool // *delineateScratch
}

// delineateScratch holds the reusable à-trous buffers of one Delineate
// call.
type delineateScratch struct {
	details [][]float64
	ws      wavelet.Scratch
}

// NewWaveletDelineator validates the configuration and returns a
// delineator.
func NewWaveletDelineator(cfg Config) (*WaveletDelineator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &WaveletDelineator{cfg: c}
	d.pool.New = func() any { return new(delineateScratch) }
	return d, nil
}

// ms converts milliseconds to samples at the configured rate.
func (d *WaveletDelineator) ms(v float64) int {
	return int(v * d.cfg.Fs / 1000)
}

// Delineate processes one signal (a single lead, or the RMS combination
// of several leads per ref [11]) and returns the detected beats in
// temporal order.
func (d *WaveletDelineator) Delineate(x []float64) ([]BeatFiducials, error) {
	if len(x) < 32 {
		return nil, nil
	}
	s := d.pool.Get().(*delineateScratch)
	defer d.pool.Put(s)
	w, err := wavelet.AtrousInto(x, wavelet.AtrousScales, s.details, &s.ws)
	if err != nil {
		return nil, err
	}
	s.details = w // keep the (possibly regrown) buffers for reuse
	return d.DelineateCoeffs(w)
}

// detectQRS finds R peaks as zero-crossings between opposite-sign
// modulus-maxima pairs on detection scale 2² that co-occur at scale 2³,
// with a threshold set per 2 s block and refractory blanking. A shorter
// trailing block joins the block before it: the RMS of a short tail is
// too low a floor and lets T waves through as R peaks. It also
// returns each beat's QRS modulus-maximum magnitude (used to scale the
// P/T acceptance thresholds).
func (d *WaveletDelineator) detectQRS(w [][]float64) (rs []int, mm []float64) {
	w2 := w[1] // scale 2²: QRS energy peaks here
	w3 := w[2]
	n := len(w2)
	refractory := d.ms(d.cfg.RefractoryMs)
	pairWin := d.ms(120) // max separation of the modulus-maxima pair
	block := int(2 * d.cfg.Fs)
	if block < 1 {
		block = 1
	}
	i := 0
	lastR := -refractory
	for start, end := 0, 0; start < n; start = end {
		end = start + block
		if end+block > n {
			end = n
		}
		thr := d.cfg.QRSThreshold * dsp.RMS(w2[start:end])
		if thr == 0 {
			continue
		}
		i = start
		for i < end {
			if math.Abs(w2[i]) < thr || i-lastR < refractory {
				i++
				continue
			}
			// Found the first modulus maximum of a candidate pair: walk to
			// its local extremum.
			sign := 1.0
			if w2[i] < 0 {
				sign = -1
			}
			p1 := i
			for p1+1 < n && w2[p1+1]*sign > w2[p1]*sign {
				p1++
			}
			// Search the opposite-signed extremum within the pair window.
			p2, best := -1, 0.0
			for j := p1 + 1; j < n && j <= p1+pairWin; j++ {
				v := -w2[j] * sign
				if v > best {
					best, p2 = v, j
				}
			}
			if p2 == -1 || best < thr*0.6 {
				i = p1 + 1
				continue
			}
			// Confirm at the next scale up (rejects high-frequency noise
			// spikes that vanish at coarser scales).
			peakW3 := 0.0
			for j := maxInt(0, p1-pairWin); j < minInt(n, p2+pairWin); j++ {
				if a := math.Abs(w3[j]); a > peakW3 {
					peakW3 = a
				}
			}
			if peakW3 < 0.4*math.Abs(w2[p1]) {
				i = p1 + 1
				continue
			}
			// R peak: zero-crossing between the pair.
			r := p1
			for j := p1; j < p2; j++ {
				if w2[j]*sign >= 0 && w2[j+1]*sign < 0 {
					r = j
					break
				}
			}
			// The à-trous bank is causal: outputs lag the input by about
			// one sample per tap at this scale; compensate.
			r -= d.qrsLag()
			if r < 0 {
				r = 0
			}
			if r-lastR >= refractory {
				rs = append(rs, r)
				mm = append(mm, math.Abs(w2[p1]))
				lastR = r
			}
			i = p2 + 1
		}
	}
	return rs, mm
}

// MinInputLen is the shortest signal Delineate will process; shorter
// inputs return no beats.
const MinInputLen = 32

// DelineateCoeffs runs detection and wave bracketing over a precomputed
// à-trous transform (wavelet.AtrousScales equal-length scales of one
// signal, as produced by wavelet.AtrousInto). Callers that already own
// the transform — e.g. a compiled pipeline whose arena holds the detail
// buffers — skip the internal transform pool entirely; Delineate is
// exactly AtrousInto followed by this.
func (d *WaveletDelineator) DelineateCoeffs(w [][]float64) ([]BeatFiducials, error) {
	if len(w) < 4 {
		return nil, ErrConfig
	}
	n := len(w[0])
	for _, ws := range w {
		if len(ws) != n {
			return nil, ErrConfig
		}
	}
	if n < MinInputLen {
		return nil, nil
	}
	rPeaks, qrsMM := d.detectQRS(w)
	beats := make([]BeatFiducials, 0, len(rPeaks))
	for i, r := range rPeaks {
		b := BeatFiducials{R: r}
		b.QRS = d.bracketQRS(w, r)
		b.QRS.Peak = r
		prevEnd := 0
		if i > 0 {
			prevEnd = rPeaks[i-1]
		}
		nextStart := n
		if i+1 < len(rPeaks) {
			nextStart = rPeaks[i+1]
		}
		b.T = d.findT(w, b.QRS, nextStart, qrsMM[i])
		b.P = d.findP(w, b.QRS, prevEnd, qrsMM[i])
		beats = append(beats, b)
	}
	return beats, nil
}

// qrsLag is the group delay, in samples, of the scale-2² transform.
func (d *WaveletDelineator) qrsLag() int { return 2 }

// bracketQRS finds QRS onset and offset: walking outward from the R
// peak's modulus-maxima pair on scale 2², onset is where |w2| falls below
// BoundaryFrac of the first maximum (symmetrically for offset).
func (d *WaveletDelineator) bracketQRS(w [][]float64, r int) Wave {
	w2 := w[1]
	n := len(w2)
	out := Wave{On: -1, Peak: r, Off: -1}
	win := d.ms(90)
	// Local modulus maxima straddling r.
	lIdx, lVal := -1, 0.0
	for j := maxInt(0, r-win); j <= r && j < n; j++ {
		if a := math.Abs(w2[j]); a > lVal {
			lVal, lIdx = a, j
		}
	}
	rIdx, rVal := -1, 0.0
	for j := r; j < n && j <= r+win; j++ {
		if a := math.Abs(w2[j]); a > rVal {
			rVal, rIdx = a, j
		}
	}
	if lIdx == -1 || rIdx == -1 {
		return out
	}
	thrOn := d.cfg.BoundaryFrac * lVal
	thrOff := d.cfg.BoundaryFrac * rVal
	on := lIdx
	for on > 0 && on > lIdx-win && math.Abs(w2[on]) > thrOn {
		on--
	}
	off := rIdx
	for off < n-1 && off < rIdx+win && math.Abs(w2[off]) > thrOff {
		off++
	}
	out.On = maxInt(0, on-d.qrsLag())
	out.Off = maxInt(0, off-d.qrsLag())
	if out.On > r {
		out.On = r
	}
	if out.Off < r {
		out.Off = r
	}
	return out
}

// findT searches for the T wave after the QRS offset on scale 2⁴, where
// the slow repolarisation wave dominates.
func (d *WaveletDelineator) findT(w [][]float64, qrs Wave, nextStart int, qrsMM float64) Wave {
	w4 := w[3]
	n := len(w4)
	none := Wave{On: -1, Peak: -1, Off: -1}
	from := qrs.Off + d.ms(60)
	to := qrs.Peak + d.ms(d.cfg.TSearchMs)
	if to > nextStart-d.ms(80) {
		to = nextStart - d.ms(80)
	}
	if from >= to || from < 0 || to > n {
		return none
	}
	return d.bracketSlowWave(w4, from, to, qrsMM, 4)
}

// findP searches for the P wave before the QRS onset on scale 2⁴.
func (d *WaveletDelineator) findP(w [][]float64, qrs Wave, prevEnd int, qrsMM float64) Wave {
	w4 := w[3]
	none := Wave{On: -1, Peak: -1, Off: -1}
	to := qrs.On - d.ms(20)
	from := qrs.Peak - d.ms(d.cfg.PSearchMs)
	if from < prevEnd+d.ms(120) {
		from = prevEnd + d.ms(120)
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return none
	}
	return d.bracketSlowWave(w4, from, to, qrsMM, 4)
}

// bracketSlowWave locates a smooth wave inside [from, to) of the given
// transform scale. It enumerates the local extrema of the transform
// within the window, picks the consecutive opposite-signed pair with the
// largest joint magnitude (a wave produces exactly such a modulus-maxima
// pair), places the peak at the zero-crossing between them, and walks
// outward to the 25%-of-maximum boundary crossings. The wave is rejected
// when the pair magnitude is below MinWaveAmp·qrsMM.
func (d *WaveletDelineator) bracketSlowWave(ws []float64, from, to int, qrsMM float64, scaleIdx int) Wave {
	none := Wave{On: -1, Peak: -1, Off: -1}
	if from < 1 {
		from = 1
	}
	if to > len(ws)-1 {
		to = len(ws) - 1
	}
	if to-from < 3 {
		return none
	}
	// The à-trous bank is causal; its group delay at scale 2^(k+1) is
	// about 2^k samples.
	lag := 1 << uint(scaleIdx-1)
	// Collect local extrema (index, value) inside the window.
	type extremum struct {
		idx int
		val float64
	}
	var exts []extremum
	for j := from; j < to; j++ {
		if (ws[j] > ws[j-1] && ws[j] >= ws[j+1]) || (ws[j] < ws[j-1] && ws[j] <= ws[j+1]) {
			exts = append(exts, extremum{j, ws[j]})
		}
	}
	// Best opposite-signed consecutive pair by min(|a|,|b|).
	best := -1
	bestScore := 0.0
	for i := 0; i+1 < len(exts); i++ {
		a, b := exts[i], exts[i+1]
		if a.val*b.val >= 0 {
			continue
		}
		score := math.Min(math.Abs(a.val), math.Abs(b.val))
		if score > bestScore {
			bestScore, best = score, i
		}
	}
	if best < 0 || bestScore < d.cfg.MinWaveAmp*qrsMM {
		return none
	}
	first, second := exts[best].idx, exts[best+1].idx
	// Peak at the zero-crossing between the pair.
	peak := (first + second) / 2
	s := 1.0
	if ws[first] < 0 {
		s = -1
	}
	for j := first; j < second; j++ {
		if ws[j]*s >= 0 && ws[j+1]*s < 0 {
			peak = j
			break
		}
	}
	// Boundaries at 25% of the bracketing maxima, bounded to the window
	// plus a small margin.
	margin := (to - from) / 2
	on := first
	thr := 0.25 * math.Abs(ws[first])
	for on > 1 && on > first-margin && math.Abs(ws[on]) > thr {
		on--
	}
	off := second
	thr = 0.25 * math.Abs(ws[second])
	for off < len(ws)-1 && off < second+margin && math.Abs(ws[off]) > thr {
		off++
	}
	return Wave{
		On:   maxInt(0, on-lag),
		Peak: maxInt(0, peak-lag),
		Off:  maxInt(0, off-lag),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
