package dsp

// The biquad section and its Butterworth designs are not run by any
// program: the node's graph compiles only its morphological filter. They
// stay in the package because tests elsewhere build on them: the
// Pan-Tompkins QRS baseline in internal/delineation and the high-pass
// and band-pass arms of the baseline-removal and noise-suppression
// ablations in internal/spline and internal/wavelet.

import (
	"errors"
	"math"
)

// ErrBadFilter is returned when a filter is constructed with invalid
// coefficients (empty numerator or a zero leading denominator term).
var ErrBadFilter = errors.New("dsp: invalid filter coefficients")

// Biquad is a second-order IIR section in direct form II transposed.
type Biquad struct {
	b0, b1, b2 float64
	a1, a2     float64
	z1, z2     float64
}

// NewBiquad constructs a biquad from numerator b and denominator a
// coefficients; a[0] must be non-zero and all coefficients are normalised
// by it.
func NewBiquad(b [3]float64, a [3]float64) (*Biquad, error) {
	if a[0] == 0 {
		return nil, ErrBadFilter
	}
	inv := 1 / a[0]
	return &Biquad{
		b0: b[0] * inv, b1: b[1] * inv, b2: b[2] * inv,
		a1: a[1] * inv, a2: a[2] * inv,
	}, nil
}

// Reset clears the biquad state.
func (q *Biquad) Reset() { q.z1, q.z2 = 0, 0 }

// Step filters one sample.
func (q *Biquad) Step(x float64) float64 {
	y := q.b0*x + q.z1
	q.z1 = q.b1*x - q.a1*y + q.z2
	q.z2 = q.b2*x - q.a2*y
	return y
}

// Apply filters a whole signal after resetting state.
func (q *Biquad) Apply(x []float64) []float64 {
	return q.ApplyInto(x, nil)
}

// ApplyInto is Apply writing into out (reused when capacity suffices,
// grown otherwise). out may alias x. It returns the result slice.
func (q *Biquad) ApplyInto(x, out []float64) []float64 {
	q.Reset()
	if cap(out) < len(x) {
		out = make([]float64, len(x))
	}
	out = out[:len(x)]
	for i, v := range x {
		out[i] = q.Step(v)
	}
	return out
}

// Chain is a cascade of biquad sections applied in order.
type Chain []*Biquad

// Apply runs the signal through every section in sequence.
func (c Chain) Apply(x []float64) []float64 {
	y := x
	for _, s := range c {
		y = s.Apply(y)
	}
	return y
}

// Butterworth2Lowpass designs a 2nd-order Butterworth low-pass biquad with
// cut-off fc (Hz) at sampling rate fs (Hz) using the bilinear transform.
func Butterworth2Lowpass(fc, fs float64) (*Biquad, error) {
	if fc <= 0 || fs <= 0 || fc >= fs/2 {
		return nil, ErrBadFilter
	}
	k := math.Tan(math.Pi * fc / fs)
	q := math.Sqrt2 / 2
	norm := 1 / (1 + k/q + k*k)
	b0 := k * k * norm
	return NewBiquad(
		[3]float64{b0, 2 * b0, b0},
		[3]float64{1, 2 * (k*k - 1) * norm, (1 - k/q + k*k) * norm},
	)
}

// Butterworth2Highpass designs a 2nd-order Butterworth high-pass biquad.
func Butterworth2Highpass(fc, fs float64) (*Biquad, error) {
	if fc <= 0 || fs <= 0 || fc >= fs/2 {
		return nil, ErrBadFilter
	}
	k := math.Tan(math.Pi * fc / fs)
	q := math.Sqrt2 / 2
	norm := 1 / (1 + k/q + k*k)
	return NewBiquad(
		[3]float64{norm, -2 * norm, norm},
		[3]float64{1, 2 * (k*k - 1) * norm, (1 - k/q + k*k) * norm},
	)
}
