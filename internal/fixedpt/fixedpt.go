// Package fixedpt implements the fixed-point arithmetic used by the
// embedded variants of the signal-processing kernels.
//
// The WBSN platforms targeted by the paper (Section IV.A) operate at a few
// MHz and support only integer arithmetic, so every algorithm that runs
// on-node is expressed over Q15 (16-bit) fixed-point values. The Q15
// kernels that mirror the float64 implementations (morphology, lead
// combination, à-trous bank, random projection, AF features, CS encoder)
// are checked against them in their packages' tests.
//
// Q15 values represent the range [-1, 1) with 15 fractional bits. All
// operations saturate rather than wrap, matching the saturating DSP
// extensions of the MCU class described in the paper.
package fixedpt

// Q15 is a signed 16-bit fixed-point number with 15 fractional bits,
// representing values in [-1, 1-2^-15].
type Q15 int16

// Fixed-point limits.
const (
	MaxQ15 Q15 = 0x7FFF
	MinQ15 Q15 = -0x8000

	// OneQ15 is the closest Q15 representation of +1.0 (saturated).
	OneQ15 = MaxQ15
	// HalfQ15 is the exact Q15 representation of 0.5.
	HalfQ15 Q15 = 0x4000
)

// FromFloat converts a float64 in [-1, 1) to Q15, saturating out-of-range
// inputs and rounding to nearest.
func FromFloat(f float64) Q15 {
	v := f * 32768.0
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	if v > 32767 {
		return MaxQ15
	}
	if v < -32768 {
		return MinQ15
	}
	return Q15(int32(v))
}

// Float converts a Q15 value to float64.
func (q Q15) Float() float64 { return float64(q) / 32768.0 }

// SatSub returns a-b with saturation.
func SatSub(a, b Q15) Q15 {
	s := int32(a) - int32(b)
	if s > 32767 {
		return MaxQ15
	}
	if s < -32768 {
		return MinQ15
	}
	return Q15(s)
}

// ISqrt64 returns floor(sqrt(v)) for an unsigned 64-bit integer.
func ISqrt64(v uint64) uint64 {
	var res uint64
	bit := uint64(1) << 62
	for bit > v {
		bit >>= 2
	}
	for bit != 0 {
		if v >= res+bit {
			v -= res + bit
			res = (res >> 1) + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return res
}

// FromSlice converts a float64 slice to Q15, saturating each element.
func FromSlice(xs []float64) []Q15 {
	out := make([]Q15, len(xs))
	for i, x := range xs {
		out[i] = FromFloat(x)
	}
	return out
}
