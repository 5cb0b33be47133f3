package morpho

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestErodeDilateRejectBadSE(t *testing.T) {
	x := []float64{1, 2, 3}
	if _, err := ErodeFlat(x, 0); err != ErrBadSE {
		t.Error("ErodeFlat with k=0 should fail")
	}
	if _, err := DilateFlat(x, -1); err != ErrBadSE {
		t.Error("DilateFlat with k<0 should fail")
	}
	if _, err := ErodeFlatNaive(x, 0); err != ErrBadSE {
		t.Error("naive erode with k=0 should fail")
	}
	if _, err := DilateFlatNaive(x, 0); err != ErrBadSE {
		t.Error("naive dilate with k=0 should fail")
	}
}

func TestErodeBasic(t *testing.T) {
	x := []float64{5, 1, 5, 5, 5}
	e, err := ErodeFlat(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 1, 5, 5}
	for i := range want {
		if e[i] != want[i] {
			t.Errorf("ErodeFlat[%d] = %v, want %v", i, e[i], want[i])
		}
	}
}

func TestDilateBasic(t *testing.T) {
	x := []float64{0, 9, 0, 0, 0}
	d, err := DilateFlat(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{9, 9, 9, 0, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("DilateFlat[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

// Property: the monotonic wedge matches the naive O(n*k) scan for
// random signals and window lengths (the ablation's correctness leg).
func TestWedgeMatchesNaive(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + int(kk%100)
		k := 1 + int(kk%25)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		e1, _ := ErodeFlat(x, k)
		e2, _ := ErodeFlatNaive(x, k)
		d1, _ := DilateFlat(x, k)
		d2, _ := DilateFlatNaive(x, k)
		for i := 0; i < n; i++ {
			if e1[i] != e2[i] || d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: erosion-dilation duality, erode(x) = -dilate(-x).
func TestErosionDilationDuality(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 80
		k := 1 + int(kk%15)
		x := make([]float64, n)
		neg := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			neg[i] = -x[i]
		}
		e, _ := ErodeFlat(x, k)
		d, _ := DilateFlat(neg, k)
		for i := range e {
			if e[i] != -d[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Properties: opening is anti-extensive (<= x), closing extensive (>= x),
// both idempotent.
func TestOpeningClosingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	k := 7
	o, err := OpenFlat(x, k)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CloseFlat(x, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if o[i] > x[i]+1e-12 {
			t.Fatalf("opening not anti-extensive at %d: %v > %v", i, o[i], x[i])
		}
		if c[i] < x[i]-1e-12 {
			t.Fatalf("closing not extensive at %d: %v < %v", i, c[i], x[i])
		}
	}
	oo, _ := OpenFlat(o, k)
	cc, _ := CloseFlat(c, k)
	for i := range x {
		if math.Abs(oo[i]-o[i]) > 1e-12 {
			t.Fatalf("opening not idempotent at %d", i)
		}
		if math.Abs(cc[i]-c[i]) > 1e-12 {
			t.Fatalf("closing not idempotent at %d", i)
		}
	}
}

func TestOpeningRemovesNarrowPeak(t *testing.T) {
	x := make([]float64, 50)
	x[25] = 10 // single-sample spike
	o, err := OpenFlat(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range o {
		if v != 0 {
			t.Errorf("opening left residue %v at %d", v, i)
		}
	}
}

func TestClosingFillsNarrowPit(t *testing.T) {
	x := make([]float64, 50)
	x[25] = -10
	c, err := CloseFlat(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if v != 0 {
			t.Errorf("closing left residue %v at %d", v, i)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	e, err := ErodeFlat(nil, 3)
	if err != nil || len(e) != 0 {
		t.Error("ErodeFlat(nil) should return empty, nil error")
	}
}

func TestMonotoneIncreasing(t *testing.T) {
	// Erosion/dilation of a monotone signal is monotone.
	x := make([]float64, 30)
	for i := range x {
		x[i] = float64(i)
	}
	e, _ := ErodeFlat(x, 5)
	d, _ := DilateFlat(x, 5)
	for i := 1; i < len(x); i++ {
		if e[i] < e[i-1] || d[i] < d[i-1] {
			t.Fatalf("monotonicity violated at %d", i)
		}
	}
}

// Property: the monomorphic value-carrying wedge handles tie plateaus
// exactly like the naive scan — the pop-on-equal rule only changes which
// equal-valued index survives, never the forwarded sample value.
func TestSlidingExtremumTiePlateaus(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + int(kk%60)
		k := 1 + int(kk%17)
		x := make([]float64, n)
		for i := range x {
			// Coarse quantisation forces long runs of exactly equal values.
			x[i] = float64(rng.Intn(4))
		}
		e1, _ := ErodeFlat(x, k)
		e2, _ := ErodeFlatNaive(x, k)
		d1, _ := DilateFlat(x, k)
		d2, _ := DilateFlatNaive(x, k)
		for i := 0; i < n; i++ {
			if e1[i] != e2[i] || d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Windows larger than the signal exercise the all-border path of the
// wedge (every virtual index clamps).
func TestSlidingExtremumWindowLargerThanSignal(t *testing.T) {
	x := []float64{3, -1, 4, 1, -5}
	for _, k := range []int{len(x), len(x) + 1, 3 * len(x)} {
		e1, err := ErodeFlat(x, k)
		if err != nil {
			t.Fatal(err)
		}
		e2, _ := ErodeFlatNaive(x, k)
		d1, _ := DilateFlat(x, k)
		d2, _ := DilateFlatNaive(x, k)
		for i := range x {
			if e1[i] != e2[i] || d1[i] != d2[i] {
				t.Fatalf("k=%d i=%d: erode %g/%g dilate %g/%g", k, i, e1[i], e2[i], d1[i], d2[i])
			}
		}
	}
}

// The naive O(k) operators (the wedge ablation's baseline) and the
// allocating opening and closing below are read only by the tests.

// ErodeFlatNaive computes flat erosion (sliding minimum) with a centred
// window of length k using the direct O(n*k) algorithm. Borders use edge
// replication. Kept as the baseline for BenchmarkAblationWedge.
func ErodeFlatNaive(x []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, ErrBadSE
	}
	n := len(x)
	out := make([]float64, n)
	half := k / 2
	for i := 0; i < n; i++ {
		lo := i - half
		hi := lo + k - 1
		m := x[clampIdx(lo, n)]
		for j := lo + 1; j <= hi; j++ {
			v := x[clampIdx(j, n)]
			if v < m {
				m = v
			}
		}
		out[i] = m
	}
	return out, nil
}

// DilateFlatNaive computes flat dilation (sliding maximum) with the
// direct O(n*k) algorithm.
func DilateFlatNaive(x []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, ErrBadSE
	}
	n := len(x)
	out := make([]float64, n)
	half := k / 2
	for i := 0; i < n; i++ {
		lo := i - half
		hi := lo + k - 1
		m := x[clampIdx(lo, n)]
		for j := lo + 1; j <= hi; j++ {
			v := x[clampIdx(j, n)]
			if v > m {
				m = v
			}
		}
		out[i] = m
	}
	return out, nil
}

// OpenFlat computes morphological opening (erosion then dilation) with a
// flat structuring element of length k: it removes positive peaks
// narrower than k.
func OpenFlat(x []float64, k int) ([]float64, error) {
	e, err := ErodeFlat(x, k)
	if err != nil {
		return nil, err
	}
	return DilateFlat(e, k)
}

// CloseFlat computes morphological closing (dilation then erosion): it
// fills negative pits narrower than k.
func CloseFlat(x []float64, k int) ([]float64, error) {
	d, err := DilateFlat(x, k)
	if err != nil {
		return nil, err
	}
	return ErodeFlat(d, k)
}

// BenchmarkAblationWedge compares the O(1)-per-sample sliding-window
// erosion against the naive O(k) implementation (Section IV.A).
func BenchmarkAblationWedge(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	k := 51 // the 0.2 s baseline SE at 256 Hz
	b.Run("wedge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ErodeFlat(x, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ErodeFlatNaive(x, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}
