package wavelet

import (
	"math"
	"math/rand"
	"testing"
)

// refAnalyzeOne and refSynthesizeOne are frozen copies of the per-level
// kernels as they stood before the output-tiled rewrite, generic in the
// filter length: one output per step with a modulo wrap on every tap
// (analysis), and a zero-then-scatter pass in ascending i (synthesis).
// They are the oracle the 8-tap production kernels must match bit for
// bit; the bodies are kept verbatim apart from reading the high-pass
// filter field directly and slicing the fixed-size filter arrays.
func (w *Orthogonal) refAnalyzeOne(x, a, d []float64) {
	n := len(x)
	h := w.h[:]
	g := w.gf[:]
	L := len(h)
	for i := 0; i < n/2; i++ {
		var sa, sd float64
		base := 2 * i
		for k := 0; k < L; k++ {
			j := base + k
			if j >= n {
				j -= n
			}
			sa += h[k] * x[j]
			sd += g[k] * x[j]
		}
		a[i] = sa
		d[i] = sd
	}
}

func (w *Orthogonal) refSynthesizeOne(a, d, x []float64) {
	n := len(x)
	h := w.h[:]
	g := w.gf[:]
	L := len(h)
	for i := range x {
		x[i] = 0
	}
	for i := 0; i < n/2; i++ {
		base := 2 * i
		for k := 0; k < L; k++ {
			j := base + k
			if j >= n {
				j -= n
			}
			x[j] += h[k]*a[i] + g[k]*d[i]
		}
	}
}

// kernelInput fills v with values spread over nine decades of
// magnitude, both signs, and a share of exact +0 and −0 entries, so a
// changed accumulation order or a dropped signed zero shows.
func kernelInput(v []float64, rng *rand.Rand) {
	negZero := math.Copysign(0, -1)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = negZero
		default:
			mag := math.Pow(10, float64(rng.Intn(9)-4)) * (0.5 + rng.Float64())
			if rng.Intn(2) == 0 {
				mag = -mag
			}
			v[i] = mag
		}
	}
}

// sameBits reports the first index where got and want differ in their
// IEEE-754 bit patterns (so +0 and −0 differ), or −1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestKernelsMatchFrozen pins the 8-tap analysis and the gather
// synthesis to the frozen generic kernels bit for bit, for both 8-tap
// bases and every even length from 8 to 1024: the two-output analysis
// steps, the four-output synthesis steps, the wrapped synthesis head
// and the tail loops all meet their boundaries somewhere in that range.
// Each length also runs inputs of random signed zeros, in which about
// one output in 256 has only −0 products, so an accumulator that
// started from the first product instead of from +0 would show.
func TestKernelsMatchFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, w := range allWavelets() {
		for n := len(w.h); n <= 1024; n += 2 {
			half := n / 2
			for _, fill := range []string{"random", "signed zeros"} {
				x := make([]float64, n)
				a, d := make([]float64, half), make([]float64, half)
				for _, v := range [][]float64{x, a, d} {
					if fill == "random" {
						kernelInput(v, rng)
						continue
					}
					for i := range v {
						v[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
					}
				}
				ga, gd := make([]float64, half), make([]float64, half)
				ra, rd := make([]float64, half), make([]float64, half)
				w.analyzeOne(x, ga, gd)
				w.refAnalyzeOne(x, ra, rd)
				if i := sameBits(ga, ra); i >= 0 {
					t.Fatalf("%s n=%d %s: approximation[%d] = %v, frozen %v", w.Name(), n, fill, i, ga[i], ra[i])
				}
				if i := sameBits(gd, rd); i >= 0 {
					t.Fatalf("%s n=%d %s: detail[%d] = %v, frozen %v", w.Name(), n, fill, i, gd[i], rd[i])
				}
				y, ry := make([]float64, n), make([]float64, n)
				w.synthesizeOne(a, d, y)
				w.refSynthesizeOne(a, d, ry)
				if i := sameBits(y, ry); i >= 0 {
					t.Fatalf("%s n=%d %s: synthesis[%d] = %v, frozen %v", w.Name(), n, fill, i, y[i], ry[i])
				}
			}
		}
	}
}

// TestShortLevelRejected: a level whose input is shorter than the
// filter would wrap a tap window past the signal twice. Such a
// geometry (64 samples at 5 levels, whose last level sees 4 samples)
// must be refused up front with ErrLength, not index out of range
// inside the kernel; the deepest geometries that fit (64 samples at 4
// levels, 8 at 1) must pass.
func TestShortLevelRejected(t *testing.T) {
	var s Scratch
	for _, w := range allWavelets() {
		for _, tc := range []struct{ n, levels int }{{64, 5}, {64, 4}, {32, 4}, {16, 3}, {8, 3}, {8, 1}} {
			short := tc.n>>uint(tc.levels-1) < len(w.h)
			x := randSignal(tc.n, 3)
			out := make([]float64, tc.n)
			errs := []error{
				w.ForwardInto(x, tc.levels, out, &s),
				w.InverseInto(x, tc.levels, out, &s),
				w.CheckLength(tc.n, tc.levels),
			}
			_, err := w.Forward(x, tc.levels)
			errs = append(errs, err)
			_, err = w.Inverse(x, tc.levels)
			errs = append(errs, err)
			for i, err := range errs {
				if short && err != ErrLength {
					t.Errorf("%s n=%d levels=%d call %d: err = %v, want ErrLength", w.Name(), tc.n, tc.levels, i, err)
				}
				if !short && err != nil {
					t.Errorf("%s n=%d levels=%d call %d: err = %v, want nil", w.Name(), tc.n, tc.levels, i, err)
				}
			}
		}
	}
}

// BenchmarkPyramid times one forward plus one inverse 5-level db8
// transform of a 512-sample window, the pair every FISTA iteration
// runs per plane.
func BenchmarkPyramid(b *testing.B) {
	w := Daubechies8()
	x := randSignal(512, 21)
	c := make([]float64, 512)
	y := make([]float64, 512)
	var s Scratch
	for i := 0; i < b.N; i++ {
		if err := w.ForwardInto(x, 5, c, &s); err != nil {
			b.Fatal(err)
		}
		if err := w.InverseInto(c, 5, y, &s); err != nil {
			b.Fatal(err)
		}
	}
}
