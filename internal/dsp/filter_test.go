package dsp

import (
	"math"
	"testing"
)

func sine(f, fs float64, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
	}
	return x
}

func TestNewFIRRejectsEmpty(t *testing.T) {
	if _, err := NewFIR(nil); err == nil {
		t.Error("NewFIR(nil) should fail")
	}
}

func TestFIRIdentity(t *testing.T) {
	f, err := NewFIR([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, -4, 5}
	y := f.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Errorf("identity FIR altered sample %d: %v != %v", i, y[i], x[i])
		}
	}
}

func TestFIRDelay(t *testing.T) {
	// h = [0, 1] delays by one sample.
	f, _ := NewFIR([]float64{0, 1})
	x := []float64{1, 2, 3, 4}
	y := f.Apply(x)
	want := []float64{0, 1, 2, 3}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("delay FIR[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestFIRMatchesConvolution(t *testing.T) {
	taps := []float64{0.25, 0.5, 0.25}
	f, _ := NewFIR(taps)
	x := []float64{1, -1, 2, 0, 3, -2, 1}
	y := f.Apply(x)
	full := Convolve(x, taps)
	for i := range y {
		if math.Abs(y[i]-full[i]) > 1e-12 {
			t.Errorf("FIR vs Convolve mismatch at %d: %v vs %v", i, y[i], full[i])
		}
	}
}

func TestFIRTapsCopy(t *testing.T) {
	taps := []float64{1, 2}
	f, _ := NewFIR(taps)
	got := f.Taps()
	got[0] = 99
	if f.Taps()[0] != 1 {
		t.Error("Taps must return a copy")
	}
}

func TestButterworthLowpassAttenuation(t *testing.T) {
	fs := 256.0
	lp, err := Butterworth2Lowpass(10, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Pass-band tone.
	low := lp.Apply(sine(2, fs, 2048))
	// Stop-band tone.
	high := lp.Apply(sine(80, fs, 2048))
	rl, rh := RMS(low[512:]), RMS(high[512:])
	if rl < 0.6 {
		t.Errorf("2 Hz tone attenuated too much by 10 Hz LP: RMS %v", rl)
	}
	if rh > 0.05 {
		t.Errorf("80 Hz tone not attenuated by 10 Hz LP: RMS %v", rh)
	}
}

func TestButterworthHighpassAttenuation(t *testing.T) {
	fs := 256.0
	hp, err := Butterworth2Highpass(5, fs)
	if err != nil {
		t.Fatal(err)
	}
	low := hp.Apply(sine(0.3, fs, 4096))
	high := hp.Apply(sine(30, fs, 4096))
	if RMS(low[1024:]) > 0.05 {
		t.Errorf("0.3 Hz tone not attenuated by 5 Hz HP: RMS %v", RMS(low[1024:]))
	}
	if RMS(high[1024:]) < 0.6 {
		t.Errorf("30 Hz tone attenuated too much by 5 Hz HP: RMS %v", RMS(high[1024:]))
	}
}

func TestNotchFilter(t *testing.T) {
	fs := 256.0
	nf, err := NotchFilter(50, 30, fs)
	if err != nil {
		t.Fatal(err)
	}
	at50 := nf.Apply(sine(50, fs, 8192))
	at20 := nf.Apply(sine(20, fs, 8192))
	if RMS(at50[4096:]) > 0.05 {
		t.Errorf("50 Hz tone survives notch: RMS %v", RMS(at50[4096:]))
	}
	if RMS(at20[4096:]) < 0.6 {
		t.Errorf("20 Hz tone damaged by 50 Hz notch: RMS %v", RMS(at20[4096:]))
	}
}

func TestFilterDesignRejectsBadParams(t *testing.T) {
	if _, err := Butterworth2Lowpass(200, 256); err == nil {
		t.Error("fc above Nyquist should fail")
	}
	if _, err := Butterworth2Highpass(-1, 256); err == nil {
		t.Error("negative fc should fail")
	}
	if _, err := NotchFilter(50, 0, 256); err == nil {
		t.Error("zero Q should fail")
	}
	if _, err := NewBiquad([3]float64{1, 0, 0}, [3]float64{0, 1, 0}); err == nil {
		t.Error("zero a0 should fail")
	}
}

func TestBandpassECGRemovesBaselineAndHF(t *testing.T) {
	fs := 256.0
	ch, err := BandpassECG(fs)
	if err != nil {
		t.Fatal(err)
	}
	baseline := ch.Apply(sine(0.1, fs, 8192))
	mid := ch.Apply(sine(10, fs, 8192))
	hf := ch.Apply(sine(100, fs, 8192))
	if RMS(baseline[4096:]) > 0.1 {
		t.Errorf("baseline wander survives band-pass: %v", RMS(baseline[4096:]))
	}
	if RMS(mid[4096:]) < 0.5 {
		t.Errorf("10 Hz (QRS band) attenuated: %v", RMS(mid[4096:]))
	}
	if RMS(hf[4096:]) > 0.15 {
		t.Errorf("100 Hz noise survives band-pass: %v", RMS(hf[4096:]))
	}
}

func TestMovingAverage(t *testing.T) {
	m, err := NewMovingAverage(3)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{m.Step(3), m.Step(6), m.Step(9), m.Step(0)}
	want := []float64{3, 4.5, 6, 5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := NewMovingAverage(0); err == nil {
		t.Error("NewMovingAverage(0) should fail")
	}
	m.Reset()
	if m.Step(10) != 10 {
		t.Error("Reset did not clear MA state")
	}
}

func TestConvolve(t *testing.T) {
	y := Convolve([]float64{1, 2, 3}, []float64{1, 1})
	want := []float64{1, 3, 5, 3}
	if len(y) != len(want) {
		t.Fatalf("Convolve length %d, want %d", len(y), len(want))
	}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("Convolve[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	if Convolve(nil, []float64{1}) != nil {
		t.Error("Convolve with empty input should return nil")
	}
}

func TestDecimate(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6}
	got := Decimate(x, 3)
	want := []float64{0, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("Decimate length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Decimate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Decimate(x, 0) != nil {
		t.Error("Decimate with k=0 should return nil")
	}
}

func TestResampleLinear(t *testing.T) {
	// Upsampling a ramp stays a ramp.
	x := []float64{0, 1, 2, 3}
	y := ResampleLinear(x, 100, 200)
	for i := 0; i < len(y)-2; i++ {
		d := y[i+1] - y[i]
		if math.Abs(d-0.5) > 1e-9 {
			t.Errorf("resampled ramp step at %d = %v, want 0.5", i, d)
		}
	}
	// Preserves a tone's RMS approximately.
	fs := 256.0
	tone := sine(5, fs, 1024)
	up := ResampleLinear(tone, fs, 512)
	if math.Abs(RMS(up)-RMS(tone)) > 0.02 {
		t.Errorf("resampling changed RMS: %v vs %v", RMS(up), RMS(tone))
	}
	if ResampleLinear(nil, 100, 200) != nil {
		t.Error("empty input should return nil")
	}
}

func TestMedianFilter(t *testing.T) {
	if _, err := MedianFilter([]float64{1}, 0); err != ErrBadFilter {
		t.Error("k=0 should fail")
	}
	// Impulse removal: a single spike vanishes under a width-3 median.
	x := make([]float64, 20)
	x[10] = 5
	y, err := MedianFilter(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		if v != 0 {
			t.Errorf("median filter left %v at %d", v, i)
		}
	}
	// Step preservation: medians do not smear edges like means do.
	s := make([]float64, 20)
	for i := 10; i < 20; i++ {
		s[i] = 1
	}
	ys, _ := MedianFilter(s, 5)
	for i, v := range ys {
		if v != s[i] {
			t.Errorf("median filter distorted the step at %d: %v", i, v)
		}
	}
}

// The filters below (FIR, notch, the 0.5-40 Hz band-pass, the cascade's
// in-place form, moving average, convolution, decimation, resampling,
// sliding median) are not run by any program: the node's graph compiles
// only its morphological filter. They stay beside their tests.

// FIR is a finite-impulse-response filter defined by its tap coefficients.
// The zero value is unusable; construct with NewFIR.
type FIR struct {
	taps  []float64
	delay []float64 // circular delay line
	pos   int
}

// NewFIR creates an FIR filter with the given tap coefficients
// (b[0] applied to the newest sample).
func NewFIR(taps []float64) (*FIR, error) {
	if len(taps) == 0 {
		return nil, ErrBadFilter
	}
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIR{taps: t, delay: make([]float64, len(taps))}, nil
}

// Taps returns a copy of the filter coefficients.
func (f *FIR) Taps() []float64 {
	t := make([]float64, len(f.taps))
	copy(t, f.taps)
	return t
}

// Reset clears the filter's delay line.
func (f *FIR) Reset() {
	for i := range f.delay {
		f.delay[i] = 0
	}
	f.pos = 0
}

// Step filters one sample and returns the output.
func (f *FIR) Step(x float64) float64 {
	f.delay[f.pos] = x
	acc := 0.0
	idx := f.pos
	for _, t := range f.taps {
		acc += t * f.delay[idx]
		idx--
		if idx < 0 {
			idx = len(f.delay) - 1
		}
	}
	f.pos++
	if f.pos == len(f.delay) {
		f.pos = 0
	}
	return acc
}

// Apply filters the whole signal, returning a new slice of equal length.
// The filter state is reset first, so Apply is deterministic.
func (f *FIR) Apply(x []float64) []float64 {
	return f.ApplyInto(x, nil)
}

// ApplyInto is Apply writing into out, which is reused when its capacity
// suffices and grown otherwise — allocation-free with a warm buffer. out
// may alias x (each input sample is read before its slot is written).
// It returns the (possibly regrown) result slice.
func (f *FIR) ApplyInto(x, out []float64) []float64 {
	f.Reset()
	if cap(out) < len(x) {
		out = make([]float64, len(x))
	}
	out = out[:len(x)]
	for i, v := range x {
		out[i] = f.Step(v)
	}
	return out
}

// ApplyInto runs the cascade writing into out: the first section filters
// x into out and the remaining sections run in place on out, so a warm
// buffer makes the whole cascade allocation-free. out may alias x.
// An empty chain copies x. It returns the (possibly regrown) slice.
func (c Chain) ApplyInto(x, out []float64) []float64 {
	if cap(out) < len(x) {
		out = make([]float64, len(x))
	}
	out = out[:len(x)]
	if len(c) == 0 {
		copy(out, x)
		return out
	}
	out = c[0].ApplyInto(x, out)
	for _, s := range c[1:] {
		out = s.ApplyInto(out, out)
	}
	return out
}

// NotchFilter designs a biquad notch at frequency f0 (Hz) with the given
// quality factor q, for powerline-interference removal (50/60 Hz).
func NotchFilter(f0, q, fs float64) (*Biquad, error) {
	if f0 <= 0 || fs <= 0 || f0 >= fs/2 || q <= 0 {
		return nil, ErrBadFilter
	}
	w0 := 2 * math.Pi * f0 / fs
	alpha := math.Sin(w0) / (2 * q)
	cw := math.Cos(w0)
	return NewBiquad(
		[3]float64{1, -2 * cw, 1},
		[3]float64{1 + alpha, -2 * cw, 1 - alpha},
	)
}

// BandpassECG returns the standard monitoring-bandwidth cascade
// (0.5-40 Hz) used as the mandatory filtering stage of Section III before
// any feature extraction.
func BandpassECG(fs float64) (Chain, error) {
	hp, err := Butterworth2Highpass(0.5, fs)
	if err != nil {
		return nil, err
	}
	lp, err := Butterworth2Lowpass(40, fs)
	if err != nil {
		return nil, err
	}
	return Chain{hp, lp}, nil
}

// MovingAverage is an O(1)-per-sample boxcar filter of length n.
type MovingAverage struct {
	buf []float64
	pos int
	sum float64
	n   int // samples seen, saturates at len(buf)
}

// NewMovingAverage creates a moving average of window length n (n >= 1).
func NewMovingAverage(n int) (*MovingAverage, error) {
	if n < 1 {
		return nil, ErrBadFilter
	}
	return &MovingAverage{buf: make([]float64, n)}, nil
}

// Step pushes a sample and returns the mean over the last min(seen, n)
// samples.
func (m *MovingAverage) Step(x float64) float64 {
	m.sum += x - m.buf[m.pos]
	m.buf[m.pos] = x
	m.pos++
	if m.pos == len(m.buf) {
		m.pos = 0
	}
	if m.n < len(m.buf) {
		m.n++
	}
	return m.sum / float64(m.n)
}

// Reset clears state.
func (m *MovingAverage) Reset() {
	for i := range m.buf {
		m.buf[i] = 0
	}
	m.pos, m.n, m.sum = 0, 0, 0
}

// Convolve returns the full convolution of x and h
// (length len(x)+len(h)-1). Either input may be empty, yielding nil.
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	y := make([]float64, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			y[i+j] += xv * hv
		}
	}
	return y
}

// Decimate returns every k-th sample of x starting at index 0. A proper
// anti-aliasing filter should be applied first; this is the raw decimator.
func Decimate(x []float64, k int) []float64 {
	if k <= 0 {
		return nil
	}
	out := make([]float64, 0, (len(x)+k-1)/k)
	for i := 0; i < len(x); i += k {
		out = append(out, x[i])
	}
	return out
}

// ResampleLinear resamples x from rate fsIn to fsOut with linear
// interpolation. This matches the light-weight rate conversion feasible on
// the node (no polyphase filter bank).
func ResampleLinear(x []float64, fsIn, fsOut float64) []float64 {
	if len(x) == 0 || fsIn <= 0 || fsOut <= 0 {
		return nil
	}
	n := int(math.Ceil(float64(len(x)) * fsOut / fsIn))
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		t := float64(i) * fsIn / fsOut
		j := int(t)
		if j >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := t - float64(j)
		out[i] = x[j]*(1-frac) + x[j+1]*frac
	}
	return out
}

// MedianFilter returns the sliding-window median of x with a centred
// window of length k (edge replication). The median filter is the
// classic robust baseline estimator the morphological and spline methods
// of Section III.B are measured against; it is O(n·k log k) and thus too
// heavy for the node, which is part of the paper's argument.
func MedianFilter(x []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, ErrBadFilter
	}
	n := len(x)
	out := make([]float64, n)
	half := k / 2
	win := make([]float64, k)
	var sortBuf []float64
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			idx := i - half + j
			if idx < 0 {
				idx = 0
			}
			if idx >= n {
				idx = n - 1
			}
			win[j] = x[idx]
		}
		out[i], sortBuf = MedianInto(win, sortBuf)
	}
	return out, nil
}
