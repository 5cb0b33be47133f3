package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(x) != 5 {
		t.Errorf("Mean = %v, want 5", Mean(x))
	}
	if Variance(x) != 4 {
		t.Errorf("Variance = %v, want 4", Variance(x))
	}
	if Std(x) != 2 {
		t.Errorf("Std = %v, want 2", Std(x))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("single-sample variance should be 0")
	}
}

func TestRMSEnergy(t *testing.T) {
	x := []float64{3, 4}
	if got := RMS(x); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", got)
	}
	if Energy(x) != 25 {
		t.Errorf("Energy = %v, want 25", Energy(x))
	}
	if RMS(nil) != 0 {
		t.Error("RMS of empty should be 0")
	}
}

func TestMinMaxArg(t *testing.T) {
	x := []float64{3, -1, 7, 7, -5, 2}
	lo, hi := MinMax(x)
	if lo != -5 || hi != 7 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	if ArgMax(x) != 2 {
		t.Errorf("ArgMax = %d, want 2 (first max)", ArgMax(x))
	}
	if ArgMin(x) != 4 {
		t.Errorf("ArgMin = %d, want 4", ArgMin(x))
	}
	if ArgAbsMax(x) != 2 {
		t.Errorf("ArgAbsMax = %d, want 2", ArgAbsMax(x))
	}
	if ArgMax(nil) != -1 || ArgMin(nil) != -1 || ArgAbsMax(nil) != -1 {
		t.Error("Arg* of empty should be -1")
	}
}

func TestMinMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinMax(nil) should panic")
		}
	}()
	MinMax(nil)
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median failed")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median failed")
	}
	if Median(nil) != 0 {
		t.Error("empty median should be 0")
	}
	// Must not modify input.
	x := []float64{5, 1, 4}
	Median(x)
	if x[0] != 5 || x[1] != 1 || x[2] != 4 {
		t.Error("Median modified its input")
	}
}

// Property: Median matches the sort-based definition on random inputs.
func TestMedianProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		m := int(n%200) + 1
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := Median(x)
		s := make([]float64, m)
		copy(s, x)
		sort.Float64s(s)
		var want float64
		if m%2 == 1 {
			want = s[m/2]
		} else {
			want = (s[m/2-1] + s[m/2]) / 2
		}
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	Normalize(x)
	if math.Abs(Mean(x)) > 1e-12 {
		t.Errorf("normalized mean = %v", Mean(x))
	}
	if math.Abs(Std(x)-1) > 1e-12 {
		t.Errorf("normalized std = %v", Std(x))
	}
	c := []float64{7, 7, 7}
	Normalize(c)
	for _, v := range c {
		if v != 0 {
			t.Error("constant signal should normalize to zeros")
		}
	}
}

func TestDetrend(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 3 + 0.5*float64(i) + math.Sin(float64(i))
	}
	Detrend(x)
	// After removing the line, the residual is the sine: mean near 0, no
	// large drift between halves.
	if math.Abs(Mean(x)) > 1e-9 {
		t.Errorf("detrended mean = %v", Mean(x))
	}
	firstHalf := Mean(x[:50])
	secondHalf := Mean(x[50:])
	if math.Abs(firstHalf-secondHalf) > 0.2 {
		t.Errorf("trend remains: %v vs %v", firstHalf, secondHalf)
	}
	short := []float64{5}
	Detrend(short) // must not panic
}

func TestDiff(t *testing.T) {
	d := Diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Diff[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if Diff([]float64{1}) != nil {
		t.Error("Diff of single sample should be nil")
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if got := Correlation(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Correlation(a, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if Correlation(a, []float64{5, 5, 5, 5}) != 0 {
		t.Error("correlation with constant should be 0")
	}
}

func TestSNRdB(t *testing.T) {
	x := sine(5, 256, 512)
	if !math.IsInf(SNRdB(x, x), 1) {
		t.Error("perfect reconstruction should give +Inf SNR")
	}
	noisy := make([]float64, len(x))
	for i := range x {
		noisy[i] = x[i] * 1.1 // 10% error => SNR = 20 dB
	}
	if got := SNRdB(x, noisy); math.Abs(got-20) > 1e-9 {
		t.Errorf("SNR of 10%% scaled error = %v, want 20", got)
	}
}

func TestPRDAndSNRRelation(t *testing.T) {
	x := sine(5, 256, 512)
	xhat := make([]float64, len(x))
	for i := range x {
		xhat[i] = x[i] * 0.95
	}
	prd := PRD(x, xhat)
	snr := SNRdB(x, xhat)
	if math.Abs(SNRFromPRD(prd)-snr) > 1e-9 {
		t.Errorf("SNRFromPRD(%v) = %v, want %v", prd, SNRFromPRD(prd), snr)
	}
	// PRD 10% <=> 20 dB, the paper's quality threshold.
	if math.Abs(SNRFromPRD(10)-GoodReconstructionSNR) > 1e-12 {
		t.Error("PRD 10% should equal the 20 dB threshold")
	}
}

func TestRMSE(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{1, 2, 6}
	if got := RMSE(x, y); math.Abs(got-math.Sqrt(3)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if RMSE(nil, nil) != 0 {
		t.Error("RMSE of empty should be 0")
	}
}

func TestMetricPanicsOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"SNRdB": func() { SNRdB([]float64{1}, []float64{1, 2}) },
		"PRD":   func() { PRD([]float64{1}, []float64{1, 2}) },
		"RMSE":  func() { RMSE([]float64{1}, []float64{1, 2}) },
		"Corr":  func() { Correlation([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// The statistics below are read only by the tests.

// SNRFromPRD converts a PRD percentage to the equivalent SNR in dB
// (SNR = -20 log10(PRD/100)).
func SNRFromPRD(prd float64) float64 {
	if prd <= 0 {
		return math.Inf(1)
	}
	return -20 * math.Log10(prd/100)
}

// Energy returns the sum of squares of x.
func Energy(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// ArgMin returns the index of the minimum element of x (-1 if empty).
func ArgMin(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v < x[best] {
			best = i
		}
	}
	return best
}

// ArgAbsMax returns the index of the element with the largest absolute
// value (-1 if empty).
func ArgAbsMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if math.Abs(v) > math.Abs(x[best]) {
			best = i
		}
	}
	return best
}

// Median returns the median of x without modifying it, or 0 for an empty
// slice.
func Median(x []float64) float64 {
	m, _ := MedianInto(x, nil)
	return m
}

// MedianInto is Median drawing its working copy from buf, which is
// reused when its capacity suffices and grown otherwise — allocation-free
// with a warm scratch. It returns the median and the (possibly regrown)
// scratch for the next call.
func MedianInto(x, buf []float64) (float64, []float64) {
	if len(x) == 0 {
		return 0, buf
	}
	if cap(buf) < len(x) {
		buf = make([]float64, len(x))
	}
	buf = buf[:len(x)]
	copy(buf, x)
	quickSelectSort(buf)
	n := len(buf)
	if n%2 == 1 {
		return buf[n/2], buf
	}
	return (buf[n/2-1] + buf[n/2]) / 2, buf
}

// quickSelectSort sorts in place with insertion sort for small inputs and
// a simple quicksort otherwise; avoids importing sort for hot paths.
func quickSelectSort(x []float64) {
	if len(x) < 16 {
		for i := 1; i < len(x); i++ {
			v := x[i]
			j := i - 1
			for j >= 0 && x[j] > v {
				x[j+1] = x[j]
				j--
			}
			x[j+1] = v
		}
		return
	}
	pivot := x[len(x)/2]
	lt, i, gt := 0, 0, len(x)
	for i < gt {
		switch {
		case x[i] < pivot:
			x[lt], x[i] = x[i], x[lt]
			lt++
			i++
		case x[i] > pivot:
			gt--
			x[gt], x[i] = x[i], x[gt]
		default:
			i++
		}
	}
	quickSelectSort(x[:lt])
	quickSelectSort(x[gt:])
}

// Normalize scales x in place to zero mean and unit standard deviation.
// Constant signals are left mean-removed only.
func Normalize(x []float64) {
	m := Mean(x)
	sd := Std(x)
	for i := range x {
		x[i] -= m
	}
	if sd == 0 {
		return
	}
	inv := 1 / sd
	for i := range x {
		x[i] *= inv
	}
}

// Detrend removes the least-squares straight line from x in place.
func Detrend(x []float64) {
	n := len(x)
	if n < 2 {
		return
	}
	// Fit y = a + b*t with t = 0..n-1.
	var st, sy, stt, sty float64
	for i, v := range x {
		t := float64(i)
		st += t
		sy += v
		stt += t * t
		sty += t * v
	}
	fn := float64(n)
	den := fn*stt - st*st
	if den == 0 {
		return
	}
	b := (fn*sty - st*sy) / den
	a := (sy - b*st) / fn
	for i := range x {
		x[i] -= a + b*float64(i)
	}
}

// Diff returns the first difference x[i+1]-x[i] (length len(x)-1).
func Diff(x []float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	return DiffInto(x, nil)
}

// DiffInto is Diff writing into out (reused when capacity suffices,
// grown otherwise). out may alias x. Inputs shorter than two samples
// yield an empty slice. It returns the (possibly regrown) result.
func DiffInto(x, out []float64) []float64 {
	if len(x) < 2 {
		return out[:0]
	}
	if cap(out) < len(x)-1 {
		out = make([]float64, len(x)-1)
	}
	out = out[:len(x)-1]
	for i := range out {
		out[i] = x[i+1] - x[i]
	}
	return out
}
