package fixedpt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 0.5, -0.5, 0.25, -0.25, 0.999, -0.999, 1.0 / 32768, -1.0 / 32768}
	for _, f := range cases {
		q := FromFloat(f)
		got := q.Float()
		if math.Abs(got-f) > 1.0/32768 {
			t.Errorf("FromFloat(%v).Float() = %v, want within 1 LSB", f, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(2.0) != MaxQ15 {
		t.Errorf("FromFloat(2.0) = %d, want MaxQ15", FromFloat(2.0))
	}
	if FromFloat(-2.0) != MinQ15 {
		t.Errorf("FromFloat(-2.0) = %d, want MinQ15", FromFloat(-2.0))
	}
	if FromFloat(1.0) != MaxQ15 {
		t.Errorf("FromFloat(1.0) = %d, want MaxQ15 (saturated)", FromFloat(1.0))
	}
}

func TestQ31Conversions(t *testing.T) {
	for _, f := range []float64{0, 0.5, -0.5, 0.123456789, -0.987654321} {
		q := FromFloat31(f)
		if math.Abs(q.Float()-f) > 1e-9 {
			t.Errorf("Q31 round-trip of %v = %v", f, q.Float())
		}
	}
	if FromFloat31(1.5) != MaxQ31 || FromFloat31(-1.5) != MinQ31 {
		t.Error("Q31 saturation failed")
	}
}

func TestSatAddSub(t *testing.T) {
	if SatAdd(MaxQ15, 1) != MaxQ15 {
		t.Error("SatAdd should saturate at MaxQ15")
	}
	if SatAdd(MinQ15, -1) != MinQ15 {
		t.Error("SatAdd should saturate at MinQ15")
	}
	if SatSub(MinQ15, 1) != MinQ15 {
		t.Error("SatSub should saturate at MinQ15")
	}
	if SatSub(MaxQ15, -1) != MaxQ15 {
		t.Error("SatSub should saturate at MaxQ15")
	}
	if SatAdd(100, 200) != 300 {
		t.Errorf("SatAdd(100,200) = %d, want 300", SatAdd(100, 200))
	}
}

// Property: SatAdd never deviates from ideal addition by more than the
// saturation bound, and matches exactly when in range.
func TestSatAddProperty(t *testing.T) {
	f := func(a, b int16) bool {
		s := int32(a) + int32(b)
		got := int32(SatAdd(Q15(a), Q15(b)))
		if s > 32767 {
			return got == 32767
		}
		if s < -32768 {
			return got == -32768
		}
		return got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul(t *testing.T) {
	half := FromFloat(0.5)
	quarter := Mul(half, half)
	if math.Abs(quarter.Float()-0.25) > 1.0/32768 {
		t.Errorf("0.5*0.5 = %v, want 0.25", quarter.Float())
	}
	// MinQ15 * MinQ15 would be +1.0, which must saturate.
	if Mul(MinQ15, MinQ15) != MaxQ15 {
		t.Errorf("MinQ15*MinQ15 = %d, want MaxQ15", Mul(MinQ15, MinQ15))
	}
}

// Property: Q15 multiplication matches float multiplication to 1 LSB.
func TestMulProperty(t *testing.T) {
	f := func(a, b int16) bool {
		fa, fb := Q15(a).Float(), Q15(b).Float()
		want := fa * fb
		if want >= 1.0 {
			want = MaxQ15.Float()
		}
		got := Mul(Q15(a), Q15(b)).Float()
		return math.Abs(got-want) <= 1.5/32768
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiv(t *testing.T) {
	a, b := FromFloat(0.25), FromFloat(0.5)
	if got := Div(a, b).Float(); math.Abs(got-0.5) > 2.0/32768 {
		t.Errorf("0.25/0.5 = %v, want 0.5", got)
	}
	if Div(FromFloat(0.9), FromFloat(0.1)) != MaxQ15 {
		t.Error("overflowing Div should saturate")
	}
	if Div(100, 0) != MaxQ15 || Div(-100, 0) != MinQ15 {
		t.Error("Div by zero should saturate with sign of numerator")
	}
}

func TestAbsNeg(t *testing.T) {
	if Abs(MinQ15) != MaxQ15 {
		t.Error("Abs(MinQ15) must saturate to MaxQ15")
	}
	if Neg(MinQ15) != MaxQ15 {
		t.Error("Neg(MinQ15) must saturate to MaxQ15")
	}
	if Abs(-100) != 100 || Abs(100) != 100 {
		t.Error("Abs basic cases failed")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(50, 0, 40) != 40 {
		t.Error("Clamp upper failed")
	}
	if Clamp(-50, -40, 40) != -40 {
		t.Error("Clamp lower failed")
	}
	if Clamp(10, 0, 40) != 10 {
		t.Error("Clamp passthrough failed")
	}
}

func TestSqrt(t *testing.T) {
	for _, f := range []float64{0.25, 0.5, 0.81, 0.0625, 0.01} {
		q := FromFloat(f)
		got := Sqrt(q).Float()
		want := math.Sqrt(f)
		if math.Abs(got-want) > 2.0/32768 {
			t.Errorf("Sqrt(%v) = %v, want %v", f, got, want)
		}
	}
	if Sqrt(-100) != 0 {
		t.Error("Sqrt of negative should be 0")
	}
	if Sqrt(0) != 0 {
		t.Error("Sqrt(0) should be 0")
	}
}

// Property: Sqrt(q)^2 <= q < (Sqrt(q)+2 LSB)^2 in the float domain.
func TestSqrtProperty(t *testing.T) {
	f := func(a int16) bool {
		if a < 0 {
			a = -a
		}
		if a < 0 { // MinInt16
			a = 0
		}
		q := Q15(a)
		r := Sqrt(q).Float()
		v := q.Float()
		return r*r <= v+2.0/32768 && (r+2.0/32768)*(r+2.0/32768) >= v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestISqrt(t *testing.T) {
	cases := []uint32{0, 1, 2, 3, 4, 15, 16, 17, 99, 100, 65535, 65536, 4294967295}
	for _, v := range cases {
		got := uint64(ISqrt32(v))
		if got*got > uint64(v) {
			t.Errorf("ISqrt32(%d) = %d too large", v, got)
		}
		if g1 := got + 1; g1*g1 <= uint64(v) {
			t.Errorf("ISqrt32(%d) = %d too small", v, got)
		}
	}
	for _, v := range []uint64{0, 1, 1 << 40, 1<<62 + 12345, math.MaxUint64} {
		got := ISqrt64(v)
		if got*got > v {
			t.Errorf("ISqrt64(%d) = %d too large", v, got)
		}
	}
}

func TestMACAccumulator(t *testing.T) {
	a := FromSlice([]float64{0.5, 0.25, -0.5})
	b := FromSlice([]float64{0.5, 0.5, 0.5})
	got := DotQ15(a, b).Float()
	want := 0.5*0.5 + 0.25*0.5 - 0.5*0.5
	if math.Abs(got-want) > 3.0/32768 {
		t.Errorf("DotQ15 = %v, want %v", got, want)
	}
}

func TestDotQ15PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DotQ15 should panic on length mismatch")
		}
	}()
	DotQ15(make([]Q15, 3), make([]Q15, 4))
}

func TestSliceConversions(t *testing.T) {
	xs := []float64{0.1, -0.2, 0.3}
	qs := FromSlice(xs)
	back := ToSlice(qs)
	for i := range xs {
		if math.Abs(back[i]-xs[i]) > 1.0/32768 {
			t.Errorf("slice round-trip [%d]: %v vs %v", i, back[i], xs[i])
		}
	}
}

func TestScaleQ15(t *testing.T) {
	xs := FromSlice([]float64{0.5, -0.5, 0.25})
	ScaleQ15(xs, HalfQ15)
	want := []float64{0.25, -0.25, 0.125}
	for i, w := range want {
		if math.Abs(xs[i].Float()-w) > 2.0/32768 {
			t.Errorf("ScaleQ15[%d] = %v, want %v", i, xs[i].Float(), w)
		}
	}
}

func TestExpNegLin4Breakpoints(t *testing.T) {
	// The approximation interpolates exactly at the breakpoints.
	for _, u := range []float64{0, 0.5, 1.25, 2.25} {
		got := ExpNegLin4(u)
		want := math.Exp(-u)
		if math.Abs(got-want) > 1e-5 {
			t.Errorf("ExpNegLin4(%v) = %v, want %v at breakpoint", u, got, want)
		}
	}
	if ExpNegLin4(5) != 0 {
		t.Error("ExpNegLin4 beyond 4 should be 0")
	}
	if ExpNegLin4(-1) != 1 {
		t.Error("ExpNegLin4 of negative should clamp to 1")
	}
}

func TestExpNegLin4MaxError(t *testing.T) {
	// Ref [14]'s "close-to-optimal" claim: with 4 segments the worst error
	// stays small; chord interpolation of exp(-u) on these breakpoints
	// keeps max error under 0.05.
	maxErr := ExpNegLin4MaxError(4001, math.Exp)
	if maxErr > 0.05 {
		t.Errorf("4-segment linearization max error %v, want <= 0.05", maxErr)
	}
	if maxErr <= 0 {
		t.Errorf("expected a non-zero approximation error, got %v", maxErr)
	}
}

func TestExpNegLin4Q15MatchesFloat(t *testing.T) {
	for u := 0.0; u < 4.0; u += 0.01 {
		uQ12 := int32(u * 4096)
		got := ExpNegLin4Q15(uQ12).Float()
		want := ExpNegLin4(u)
		if math.Abs(got-want) > 0.002 {
			t.Errorf("ExpNegLin4Q15(%v) = %v, want %v", u, got, want)
		}
	}
	if ExpNegLin4Q15(-5) != MaxQ15 {
		t.Error("negative input should clamp to 1.0 (MaxQ15)")
	}
	if ExpNegLin4Q15(4*4096+1) != 0 {
		t.Error("input beyond 4 should return 0")
	}
}

// Property: ExpNegLin4 is monotonically non-increasing.
func TestExpNegLin4Monotone(t *testing.T) {
	prev := math.Inf(1)
	for u := 0.0; u <= 4.5; u += 0.003 {
		v := ExpNegLin4(u)
		if v > prev+1e-12 {
			t.Fatalf("ExpNegLin4 not monotone at u=%v: %v > %v", u, v, prev)
		}
		prev = v
	}
}

func TestLog2Frac(t *testing.T) {
	// Exact powers of two.
	for _, c := range []struct {
		v    uint32
		want int32
	}{{1, 0}, {2, 1 << 8}, {4, 2 << 8}, {1024, 10 << 8}, {1 << 31, 31 << 8}} {
		if got := Log2Frac(c.v, 8); got != c.want {
			t.Errorf("Log2Frac(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Non-powers within 1 LSB of the float answer.
	for _, v := range []uint32{3, 5, 7, 100, 1000, 123456} {
		got := float64(Log2Frac(v, 12)) / 4096
		want := math.Log2(float64(v))
		if math.Abs(got-want) > 1.0/4096*2 {
			t.Errorf("Log2Frac(%d) = %v, want %v", v, got, want)
		}
	}
	if Log2Frac(0, 8) != -(1 << 30) {
		t.Error("log2(0) should saturate")
	}
	// Oversized fracBits clamp rather than overflow.
	if got := Log2Frac(2, 30); got != 1<<16 {
		t.Errorf("clamped fracBits: got %d, want %d", got, 1<<16)
	}
}

func TestLog2Q15(t *testing.T) {
	for _, p := range []float64{1.0 / 32768 * 16384, 0.25, 0.5, 0.999} {
		q := FromFloat(p)
		got := float64(Log2Q15(q)) / 2048
		want := math.Log2(q.Float())
		if math.Abs(got-want) > 0.002 {
			t.Errorf("Log2Q15(%v) = %v, want %v", p, got, want)
		}
	}
	if Log2Q15(0) != -(1 << 30) {
		t.Error("Log2Q15(0) should saturate")
	}
}

func TestEntropyBitsQ15(t *testing.T) {
	// Uniform over 8 bins: exactly 3 bits.
	probs := make([]Q15, 8)
	for i := range probs {
		probs[i] = FromFloat(0.125)
	}
	got := float64(EntropyBitsQ15(probs)) / 2048
	if math.Abs(got-3) > 0.01 {
		t.Errorf("uniform-8 entropy = %v bits, want 3", got)
	}
	// Deterministic distribution: zero entropy.
	certain := []Q15{MaxQ15, 0, 0}
	if e := EntropyBitsQ15(certain); e < 0 || float64(e)/2048 > 0.01 {
		t.Errorf("deterministic entropy = %v", float64(e)/2048)
	}
	// Skewed beats uniform downwards.
	skew := []Q15{FromFloat(0.7), FromFloat(0.1), FromFloat(0.1), FromFloat(0.1)}
	uniform := []Q15{FromFloat(0.25), FromFloat(0.25), FromFloat(0.25), FromFloat(0.25)}
	if EntropyBitsQ15(skew) >= EntropyBitsQ15(uniform) {
		t.Error("skewed distribution should have lower entropy")
	}
}

// The arithmetic below is not run by any program: the Q15 kernels the
// node would run call only the conversions, SatSub, ISqrt64 and the
// entropy routines kept in the package. It stays beside its tests as the
// reference for the integer paths.

// ExpNegLin4Q15 is the integer-only variant: u is given in Q12
// (i.e. real u = uQ12/4096, valid domain [0, 4)), the result is Q15.
// Its cycle cost is three compares, one subtract, one multiply and one
// shift.
func ExpNegLin4Q15(uQ12 int32) Q15 {
	if uQ12 <= 0 {
		return MaxQ15
	}
	if uQ12 >= 4*4096 {
		return 0
	}
	for _, s := range expQ15Segments {
		if uQ12 < s.hiQ12 {
			du := uQ12 - s.loQ12                // Q12
			v := s.aQ15 - ((du * s.bQ17) >> 11) // Q15
			if v < 0 {
				v = 0
			}
			if v > 32767 {
				v = 32767
			}
			return Q15(v)
		}
	}
	return 0
}

// ExpNegLin4MaxError reports the maximum absolute error of the 4-segment
// approximation against math.Exp over a uniform grid of n points in
// [0, 4], the "close to optimal" claim of ref [14] that
// BenchmarkAblationLinGauss reports.
func ExpNegLin4MaxError(n int, exact func(float64) float64) float64 {
	if n < 2 {
		n = 2
	}
	maxErr := 0.0
	for i := 0; i < n; i++ {
		u := 4 * float64(i) / float64(n-1)
		e := ExpNegLin4(u) - exact(-u)
		if e < 0 {
			e = -e
		}
		if e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// Q31 is a signed 32-bit fixed-point number with 31 fractional bits,
// representing values in [-1, 1-2^-31].
type Q31 int32

// Q31 limits.
const (
	MaxQ31 Q31 = 0x7FFFFFFF
	MinQ31 Q31 = -0x80000000
)

// FromFloat31 converts a float64 in [-1, 1) to Q31, saturating.
func FromFloat31(f float64) Q31 {
	v := f * 2147483648.0
	if v >= 2147483647 {
		return MaxQ31
	}
	if v <= -2147483648 {
		return MinQ31
	}
	return Q31(int64(v))
}

// Float converts a Q31 value to float64.
func (q Q31) Float() float64 { return float64(q) / 2147483648.0 }

// SatAdd returns a+b with saturation.
func SatAdd(a, b Q15) Q15 {
	s := int32(a) + int32(b)
	if s > 32767 {
		return MaxQ15
	}
	if s < -32768 {
		return MinQ15
	}
	return Q15(s)
}

// Mul returns the Q15 product a*b with rounding and saturation.
// The only case that saturates is MinQ15*MinQ15.
func Mul(a, b Q15) Q15 {
	p := int32(a) * int32(b) // Q30
	p += 1 << 14             // round
	p >>= 15
	if p > 32767 {
		return MaxQ15
	}
	if p < -32768 {
		return MinQ15
	}
	return Q15(p)
}

// MAC returns acc + a*b where acc is a Q30-scaled 64-bit accumulator.
// Embedded inner products keep a wide accumulator and narrow once at the
// end, which is what the MCU's MAC unit does; Acc exposes that pattern.
func MAC(acc int64, a, b Q15) int64 {
	return acc + int64(a)*int64(b)
}

// AccToQ15 narrows a Q30 accumulator (as produced by MAC) to Q15 with
// rounding and saturation.
func AccToQ15(acc int64) Q15 {
	acc += 1 << 14
	acc >>= 15
	if acc > 32767 {
		return MaxQ15
	}
	if acc < -32768 {
		return MinQ15
	}
	return Q15(acc)
}

// Div returns the Q15 quotient a/b, saturating on overflow or division by
// zero (returns MaxQ15 or MinQ15 according to the sign of a).
func Div(a, b Q15) Q15 {
	if b == 0 {
		if a >= 0 {
			return MaxQ15
		}
		return MinQ15
	}
	q := (int32(a) << 15) / int32(b)
	if q > 32767 {
		return MaxQ15
	}
	if q < -32768 {
		return MinQ15
	}
	return Q15(q)
}

// Abs returns |q| with saturation (|MinQ15| saturates to MaxQ15).
func Abs(q Q15) Q15 {
	if q == MinQ15 {
		return MaxQ15
	}
	if q < 0 {
		return -q
	}
	return q
}

// Neg returns -q with saturation.
func Neg(q Q15) Q15 {
	if q == MinQ15 {
		return MaxQ15
	}
	return -q
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi Q15) Q15 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sqrt returns the square root of a non-negative Q15 value, computed with
// the classic bit-by-bit integer algorithm (no floating point, no
// multiply), matching the routine used on multiply-poor MCUs. Negative
// inputs return 0.
func Sqrt(q Q15) Q15 {
	if q <= 0 {
		return 0
	}
	// sqrt over Q15: result r such that r*r = q<<15 in integer domain.
	x := uint32(q) << 15 // Q30 radicand
	var res uint32
	bit := uint32(1) << 30
	for bit > x {
		bit >>= 2
	}
	for bit != 0 {
		if x >= res+bit {
			x -= res + bit
			res = (res >> 1) + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	if res > 32767 {
		res = 32767
	}
	return Q15(res)
}

// ISqrt32 returns floor(sqrt(v)) for an arbitrary unsigned 32-bit integer.
// Used by integer RMS computations (lead combination, feature extraction).
func ISqrt32(v uint32) uint32 {
	var res uint32
	bit := uint32(1) << 30
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

// ToSlice converts a Q15 slice to float64.
func ToSlice(qs []Q15) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = q.Float()
	}
	return out
}

// DotQ15 computes the saturating Q15 inner product of two equal-length
// vectors using a wide accumulator, the canonical embedded MAC loop.
// It panics if the lengths differ.
func DotQ15(a, b []Q15) Q15 {
	if len(a) != len(b) {
		panic("fixedpt: length mismatch in DotQ15")
	}
	var acc int64
	for i := range a {
		acc = MAC(acc, a[i], b[i])
	}
	return AccToQ15(acc)
}

// ScaleQ15 multiplies every element of xs by k in place.
func ScaleQ15(xs []Q15, k Q15) {
	for i := range xs {
		xs[i] = Mul(xs[i], k)
	}
}

// BenchmarkAblationLinGauss compares the four-segment linearized
// exponential against math.Exp (ref [14]) in speed and worst-case error.
func BenchmarkAblationLinGauss(b *testing.B) {
	us := make([]float64, 1024)
	rng := rand.New(rand.NewSource(4))
	for i := range us {
		us[i] = rng.Float64() * 4
	}
	b.Run("lin4", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += ExpNegLin4(us[i%len(us)])
		}
		_ = s
		// A metric of the parent benchmark is not printed once it has
		// sub-benchmarks, so the error rides on this one.
		b.ReportMetric(ExpNegLin4MaxError(4001, math.Exp), "max-abs-error")
	})
	b.Run("exact", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += math.Exp(-us[i%len(us)])
		}
		_ = s
	})
}
