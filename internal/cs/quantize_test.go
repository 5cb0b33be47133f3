package cs

import "math"

// This file holds a bit-width-swept uniform quantiser: the reference
// the quantisation tests and BenchmarkAblationQuantBits sweep to show
// what payload size costs in reconstruction quality. The radio path
// itself rounds every lead onto one fixed 12-bit grid
// (link.QuantizeLead).

// Quantizer is a uniform mid-rise quantiser over a symmetric range.
type Quantizer struct {
	bits  int
	scale float64 // full-scale amplitude
}

// NewQuantizer builds a quantiser with the given bit width (2..16) and
// full-scale amplitude (values beyond ±scale clip).
func NewQuantizer(bits int, scale float64) (*Quantizer, error) {
	if bits < 2 || bits > 16 || scale <= 0 {
		return nil, ErrSolver
	}
	return &Quantizer{bits: bits, scale: scale}, nil
}

// Quantize maps a measurement to its integer code in
// [-2^(bits-1), 2^(bits-1)-1].
func (q *Quantizer) Quantize(v float64) int32 {
	levels := int32(1) << uint(q.bits-1)
	c := int32(math.Round(v / q.scale * float64(levels)))
	if c > levels-1 {
		c = levels - 1
	}
	if c < -levels {
		c = -levels
	}
	return c
}

// Dequantize maps a code back to its reconstruction value.
func (q *Quantizer) Dequantize(c int32) float64 {
	levels := float64(int32(1) << uint(q.bits-1))
	return float64(c) / levels * q.scale
}

// QuantizeSlice round-trips a measurement vector through the quantiser,
// returning the dequantised values the receiver would see plus the
// payload size in bytes.
func (q *Quantizer) QuantizeSlice(y []float64) (recon []float64, payloadBytes int) {
	recon = make([]float64, len(y))
	for i, v := range y {
		recon[i] = q.Dequantize(q.Quantize(v))
	}
	payloadBytes = (len(y)*q.bits + 7) / 8
	return recon, payloadBytes
}

// AutoScale returns a full-scale amplitude covering the given
// measurements with the specified headroom factor (>= 1).
func AutoScale(y []float64, headroom float64) float64 {
	if headroom < 1 {
		headroom = 1
	}
	peak := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		return 1
	}
	return peak * headroom
}
