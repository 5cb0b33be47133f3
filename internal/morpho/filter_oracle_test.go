package morpho

import (
	"math"
	"math/rand"
	"testing"
)

// wedgeSchedule is the conditioning filter as eight monotonic-wedge
// passes per lead, the schedule the kernel replaced, frozen here as its
// bit-identity oracle. The baseline is the opening with l0 followed by
// the closing with lc (erode l0, dilate l0, dilate lc, erode lc),
// subtracted from x; the result is the average of the 3-sample opening
// (erode, dilate) and closing (dilate, erode) of the difference.
func wedgeSchedule(x []float64, cfg FilterConfig) []float64 {
	l0 := cfg.baselineSE()
	lc := l0 + l0/2
	e, _ := ErodeFlat(x, l0)
	opened, _ := DilateFlat(e, l0)
	d, _ := DilateFlat(opened, lc)
	base, _ := ErodeFlat(d, lc)
	c := make([]float64, len(x))
	for i := range x {
		c[i] = x[i] - base[i]
	}
	e, _ = ErodeFlat(c, 3)
	o, _ := DilateFlat(e, 3)
	d, _ = DilateFlat(c, 3)
	cl, _ := ErodeFlat(d, 3)
	out := make([]float64, len(x))
	for i := range out {
		out[i] = 0.5 * (o[i] + cl[i])
	}
	return out
}

// tieRich returns n finite samples in runs of 1–4 equal values (ties
// and plateaus). Even seeds draw the runs from +0, −0, a few repeated
// levels and a Gaussian; odd seeds are mostly signed zeros with sparse
// spikes, so the baseline itself lands on +0 and −0 and the corrected
// signal mixes zeros of both signs inside the 3-sample windows.
func tieRich(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	levels := []float64{-1, -0.25, 0.25, 1}
	x := make([]float64, n)
	for i := 0; i < n; {
		var v float64
		switch r := rng.Intn(8); {
		case seed%2 == 1 && r < 7:
			v = 0
			if rng.Intn(2) == 0 {
				v = negZero
			}
		case r < 2:
			v = 0
		case r < 4:
			v = negZero
		case r < 6:
			v = levels[rng.Intn(len(levels))]
		default:
			v = rng.NormFloat64()
		}
		for run := 1 + rng.Intn(4); run > 0 && i < n; run-- {
			x[i] = v
			i++
		}
	}
	return x
}

// TestFilterKernelBitIdentity compares the conditioning kernel with the
// frozen eight-pass wedge schedule by bits, at every length from 1 to
// 1,100 samples, at sampling rates whose baseline element is odd (l0 3
// at the floor, 51, 73) and even (4, 26, 50), on tie-rich inputs. It
// pins the two rules the kernel's exactness rests on: the composed
// dilation's window starts the sum of the two half-widths before its
// output, and a 3-sample extremum that is zero is the latest zero in
// its window, whatever its sign.
func TestFilterKernelBitIdentity(t *testing.T) {
	const maxLen = 1100
	var s Scratch
	out := make([]float64, maxLen)
	for _, fs := range []float64{10, 20, 128, 250, 256, 365} {
		cfg := FilterConfig{Fs: fs}
		for n := 1; n <= maxLen; n++ {
			x := tieRich(n, int64(n)+int64(fs)*maxLen)
			want := wedgeSchedule(x, cfg)
			if err := FilterInto(x, cfg, out[:n], &s); err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if math.Float64bits(out[i]) != math.Float64bits(w) {
					t.Fatalf("Fs %v (l0 %d), %d samples: sample %d = %v (%#x), oracle %v (%#x)",
						fs, cfg.baselineSE(), n, i, out[i], math.Float64bits(out[i]), w, math.Float64bits(w))
				}
			}
		}
	}
}
