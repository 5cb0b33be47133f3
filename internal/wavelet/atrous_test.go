package wavelet

import (
	"math"
	"testing"
)

func TestAtrousRejectsBadScales(t *testing.T) {
	if _, err := Atrous(make([]float64, 10), 0); err != ErrLevels {
		t.Error("0 scales should fail")
	}
	if _, err := Atrous(make([]float64, 10), 9); err != ErrLevels {
		t.Error("9 scales should fail")
	}
	if _, err := AtrousInt(make([]int32, 10), 0); err != ErrLevels {
		t.Error("AtrousInt 0 scales should fail")
	}
}

func TestAtrousEmptyInput(t *testing.T) {
	out, err := Atrous(nil, 3)
	if err != nil || out != nil {
		t.Error("empty input should return nil, nil")
	}
}

func TestAtrousShapes(t *testing.T) {
	x := make([]float64, 300)
	out, err := Atrous(x, AtrousScales)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != AtrousScales {
		t.Fatalf("got %d scales, want %d", len(out), AtrousScales)
	}
	for s, w := range out {
		if len(w) != len(x) {
			t.Errorf("scale %d length %d, want %d (undecimated)", s, len(w), len(x))
		}
	}
}

func TestAtrousConstantIsZero(t *testing.T) {
	// The derivative wavelet annihilates constants at every scale.
	x := make([]float64, 200)
	for i := range x {
		x[i] = 5
	}
	out, err := Atrous(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range out {
		for i, v := range w {
			if math.Abs(v) > 1e-9 {
				t.Fatalf("scale %d sample %d = %v for constant input", s, i, v)
			}
		}
	}
}

func TestAtrousStepGivesSingleSignResponse(t *testing.T) {
	// A rising step produces a positive hump at every scale (smoothed
	// derivative): response should be non-negative and peak near the edge.
	n := 256
	x := make([]float64, n)
	for i := n / 2; i < n; i++ {
		x[i] = 1
	}
	out, err := Atrous(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range out {
		peak, peakIdx := 0.0, -1
		for i := 8; i < n-8; i++ {
			if w[i] < -1e-9 {
				t.Fatalf("scale %d: negative response %v at %d for rising step", s, w[i], i)
			}
			if w[i] > peak {
				peak, peakIdx = w[i], i
			}
		}
		if peak <= 0 {
			t.Fatalf("scale %d: no response to step", s)
		}
		if peakIdx < n/2-2 || peakIdx > n/2+(4<<uint(s)) {
			t.Errorf("scale %d: peak at %d, step at %d", s, peakIdx, n/2)
		}
	}
}

func TestAtrousPeakGivesMaxMinPair(t *testing.T) {
	// An isolated positive hump produces a +/- modulus-maxima pair with a
	// zero-crossing at the peak — the property the delineator exploits.
	n := 256
	x := make([]float64, n)
	c := n / 2
	for i := -10; i <= 10; i++ {
		x[c+i] = math.Exp(-float64(i*i) / 20)
	}
	out, err := Atrous(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := out[2] // scale 2^3
	maxIdx, minIdx := 0, 0
	for i := range w {
		if w[i] > w[maxIdx] {
			maxIdx = i
		}
		if w[i] < w[minIdx] {
			minIdx = i
		}
	}
	if !(maxIdx < minIdx) {
		t.Fatalf("expected positive maximum before negative minimum around peak; got max@%d min@%d", maxIdx, minIdx)
	}
	if maxIdx > c || minIdx < c {
		t.Errorf("modulus maxima (%d,%d) should straddle the peak at %d", maxIdx, minIdx, c)
	}
	// Zero crossing between them close to the peak position.
	zc := -1
	for i := maxIdx; i < minIdx; i++ {
		if w[i] >= 0 && w[i+1] < 0 {
			zc = i
			break
		}
	}
	if zc == -1 {
		t.Fatal("no zero-crossing between modulus maxima")
	}
	if d := zc - c; d < -4 || d > 4 {
		t.Errorf("zero-crossing at %d, peak at %d (offset %d)", zc, c, d)
	}
}

func TestAtrousWithApprox(t *testing.T) {
	x := make([]float64, 128)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)/64) + 0.5
	}
	details, approx, err := AtrousWithApprox(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(details) != 3 || len(approx) != len(x) {
		t.Fatal("wrong shapes from AtrousWithApprox")
	}
	// Approximation of a smooth signal stays close to the signal mean
	// behaviour; its variance must be <= input variance.
	var vx, va float64
	for i := range x {
		vx += (x[i] - 0.5) * (x[i] - 0.5)
		va += (approx[i] - 0.5) * (approx[i] - 0.5)
	}
	if va > vx {
		t.Errorf("approximation has more energy than input: %v > %v", va, vx)
	}
	if _, _, err := AtrousWithApprox(nil, 3); err != nil {
		t.Error("empty input should not error")
	}
	if _, _, err := AtrousWithApprox(x, 0); err != ErrLevels {
		t.Error("0 scales should fail")
	}
}

func TestAtrousIntMatchesFloatShape(t *testing.T) {
	// The integer transform differs by truncation only; correlation with
	// the float transform must be near 1 at every scale.
	n := 512
	xf := make([]float64, n)
	xi := make([]int32, n)
	for i := range xf {
		v := 1000*math.Exp(-sq(float64(i%170-40))/30) - 300*math.Exp(-sq(float64(i%170-60))/200)
		xf[i] = v
		xi[i] = int32(v)
	}
	fo, err := Atrous(xf, 4)
	if err != nil {
		t.Fatal(err)
	}
	io, err := AtrousInt(xi, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		var sxy, sxx, syy float64
		for i := range fo[s] {
			a, b := fo[s][i], float64(io[s][i])
			sxy += a * b
			sxx += a * a
			syy += b * b
		}
		if sxx == 0 || syy == 0 {
			t.Fatalf("scale %d: degenerate transform", s)
		}
		r := sxy / math.Sqrt(sxx*syy)
		if r < 0.99 {
			t.Errorf("scale %d: int/float correlation %v < 0.99", s, r)
		}
	}
}

func TestReflectIndexing(t *testing.T) {
	n := 5
	cases := map[int]int{-1: 0, -2: 1, 0: 0, 4: 4, 5: 4, 6: 3, -6: 4}
	for in, want := range cases {
		if got := reflect(in, n); got != want {
			t.Errorf("reflect(%d,%d) = %d, want %d", in, n, got, want)
		}
	}
}

func sq(x float64) float64 { return x * x }

// The allocating and integer à-trous banks below are read only by the
// tests, which check AtrousInto and the integer path against them.

// Atrous computes the undecimated quadratic-spline wavelet transform of x
// at the given number of dyadic scales (1..8). It returns one
// equal-length signal per scale, w[k] being the transform at scale
// 2^(k+1). Border samples use symmetric extension. An empty input returns
// nil; invalid scale counts return ErrLevels.
func Atrous(x []float64, scales int) ([][]float64, error) {
	if scales < 1 || scales > 8 {
		return nil, ErrLevels
	}
	if len(x) == 0 {
		return nil, nil
	}
	n := len(x)
	out := make([][]float64, scales)
	approx := make([]float64, n)
	copy(approx, x)
	for s := 0; s < scales; s++ {
		hole := 1 << uint(s) // zero-insertion factor at this stage
		// Detail: high-pass of current approximation.
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			var acc float64
			for k, g := range atrousHigh {
				j := i - k*hole
				acc += g * approx[reflect(j, n)]
			}
			w[i] = acc
		}
		out[s] = w
		// Next approximation: low-pass of current approximation.
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			var acc float64
			for k, h := range atrousLow {
				j := i - (k-1)*hole // centre the 4-tap kernel
				acc += h * approx[reflect(j, n)]
			}
			next[i] = acc
		}
		approx = next
	}
	return out, nil
}

// AtrousWithApprox is Atrous but additionally returns the final smoothed
// approximation signal, useful for baseline tracking.
func AtrousWithApprox(x []float64, scales int) (details [][]float64, approx []float64, err error) {
	if scales < 1 || scales > 8 {
		return nil, nil, ErrLevels
	}
	if len(x) == 0 {
		return nil, nil, nil
	}
	n := len(x)
	details = make([][]float64, scales)
	cur := make([]float64, n)
	copy(cur, x)
	for s := 0; s < scales; s++ {
		hole := 1 << uint(s)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			var acc float64
			for k, g := range atrousHigh {
				j := i - k*hole
				acc += g * cur[reflect(j, n)]
			}
			w[i] = acc
		}
		details[s] = w
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			var acc float64
			for k, h := range atrousLow {
				j := i - (k-1)*hole
				acc += h * cur[reflect(j, n)]
			}
			next[i] = acc
		}
		cur = next
	}
	return details, cur, nil
}

// AtrousInt is the integer-only variant of Atrous used on the node: input
// samples are int32 (raw ADC counts), the low-pass is computed as
// (x[j-1] + 3x[j] + 3x[j+1] + x[j+2]) >> 3 and the high-pass as
// 2(x[j] - x[j+1]), i.e. shifts and adds only. Because of the >>3
// truncation the results differ from the float transform by bounded
// rounding error; the delineator thresholds absorb it. The cycle cost of
// this routine is what the Figure 7 energy model charges for 3L-MMD-style
// kernels.
func AtrousInt(x []int32, scales int) ([][]int32, error) {
	if scales < 1 || scales > 8 {
		return nil, ErrLevels
	}
	if len(x) == 0 {
		return nil, nil
	}
	n := len(x)
	out := make([][]int32, scales)
	cur := make([]int32, n)
	copy(cur, x)
	for s := 0; s < scales; s++ {
		hole := 1 << uint(s)
		w := make([]int32, n)
		for i := 0; i < n; i++ {
			a := cur[reflect(i, n)]
			b := cur[reflect(i-hole, n)]
			w[i] = 2 * (a - b) // matches float path: 2*x[i] - 2*x[i-hole]
		}
		out[s] = w
		next := make([]int32, n)
		for i := 0; i < n; i++ {
			xm1 := int64(cur[reflect(i+hole, n)])
			x0 := int64(cur[reflect(i, n)])
			x1 := int64(cur[reflect(i-hole, n)])
			x2 := int64(cur[reflect(i-2*hole, n)])
			next[i] = int32((x1*3 + x0*3 + xm1 + x2) >> 3)
		}
		cur = next
	}
	return out, nil
}
