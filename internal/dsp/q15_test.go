package dsp

import (
	"math"
	"testing"

	"wbsn/internal/fixedpt"
)

func TestBiquadQ15MatchesFloat(t *testing.T) {
	fs := 256.0
	for name, design := range map[string]func() (*Biquad, error){
		"lowpass":  func() (*Biquad, error) { return Butterworth2Lowpass(15, fs) },
		"highpass": func() (*Biquad, error) { return Butterworth2Highpass(5, fs) }, // ≥5 Hz: Q14 coefficients hold; sub-Hz cutoffs need wider coefficients (known 16-bit limitation)
		"notch":    func() (*Biquad, error) { return NotchFilter(50, 20, fs) },
	} {
		fb, err := design()
		if err != nil {
			t.Fatal(err)
		}
		qb := QuantizeBiquad(fb)
		x := sine(8, fs, 2048)
		for i := range x {
			x[i] *= 0.4 // keep Q15 headroom
		}
		yf := fb.Apply(x)
		xq := fixedpt.FromSlice(x)
		yq := qb.Apply(xq)
		worst := 0.0
		for i := 256; i < len(x); i++ {
			if d := math.Abs(yq[i].Float() - yf[i]); d > worst {
				worst = d
			}
		}
		if worst > 0.01 {
			t.Errorf("%s: Q15 biquad deviates by %v", name, worst)
		}
	}
}

func TestBiquadQ15NotchKillsMains(t *testing.T) {
	fs := 256.0
	fb, err := NotchFilter(50, 20, fs)
	if err != nil {
		t.Fatal(err)
	}
	qb := QuantizeBiquad(fb)
	x := sine(50, fs, 8192)
	for i := range x {
		x[i] *= 0.4
	}
	y := qb.Apply(fixedpt.FromSlice(x))
	tail := make([]float64, 2048)
	for i := range tail {
		tail[i] = y[len(y)-2048+i].Float()
	}
	if RMS(tail) > 0.03 {
		t.Errorf("50 Hz survives the Q15 notch: RMS %v", RMS(tail))
	}
	qb.Reset()
	if qb.Step(0) != 0 {
		t.Error("Reset did not clear Q15 state")
	}
}

// BiquadQ15 is the integer-only biquad (Section IV.A): sections with
// coefficients quantised to Q14 (leaving one integer bit of headroom,
// since Butterworth biquad coefficients reach magnitude 2) and a 32-bit
// state path. No program runs it; it is checked against the float
// biquad.

// BiquadQ15 is a direct-form-II-transposed biquad over Q15 samples with
// Q14 coefficients and 32-bit accumulators.
type BiquadQ15 struct {
	b0, b1, b2 int32 // Q14
	a1, a2     int32 // Q14
	z1, z2     int64 // Q29 state (sample Q15 × coeff Q14)
}

// QuantizeBiquad converts a float biquad design into the integer form.
// Coefficients outside ±2 (impossible for stable biquads in practice)
// saturate.
func QuantizeBiquad(q *Biquad) *BiquadQ15 {
	toQ14 := func(v float64) int32 {
		s := v * 16384
		if s > 32767 {
			s = 32767
		}
		if s < -32768 {
			s = -32768
		}
		if s >= 0 {
			return int32(s + 0.5)
		}
		return int32(s - 0.5)
	}
	return &BiquadQ15{
		b0: toQ14(q.b0), b1: toQ14(q.b1), b2: toQ14(q.b2),
		a1: toQ14(q.a1), a2: toQ14(q.a2),
	}
}

// Reset clears the filter state.
func (f *BiquadQ15) Reset() { f.z1, f.z2 = 0, 0 }

// Step filters one Q15 sample.
func (f *BiquadQ15) Step(x fixedpt.Q15) fixedpt.Q15 {
	xi := int64(x)
	y := (int64(f.b0)*xi + f.z1) >> 14 // Q15
	if y > 32767 {
		y = 32767
	}
	if y < -32768 {
		y = -32768
	}
	f.z1 = int64(f.b1)*xi - int64(f.a1)*y + f.z2
	f.z2 = int64(f.b2)*xi - int64(f.a2)*y
	return fixedpt.Q15(y)
}

// Apply filters a whole Q15 signal after resetting state.
func (f *BiquadQ15) Apply(x []fixedpt.Q15) []fixedpt.Q15 {
	f.Reset()
	out := make([]fixedpt.Q15, len(x))
	for i, v := range x {
		out[i] = f.Step(v)
	}
	return out
}
