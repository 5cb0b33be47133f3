package morpho

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wbsn/internal/fixedpt"
)

func TestQ15ErodeDilateMatchFloatExactly(t *testing.T) {
	// Order statistics commute with quantisation: the Q15 morphology of
	// the quantised signal must equal the quantisation of the float
	// morphology.
	f := func(seed int64, kk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + int(kk%60)
		k := 1 + int(kk%15)
		xq := make([]fixedpt.Q15, n)
		xf := make([]float64, n)
		for i := range xq {
			xq[i] = fixedpt.FromFloat(rng.Float64()*1.6 - 0.8)
			xf[i] = xq[i].Float()
		}
		eq, _ := ErodeFlatQ15(xq, k)
		ef, _ := ErodeFlat(xf, k)
		dq, _ := DilateFlatQ15(xq, k)
		df, _ := DilateFlat(xf, k)
		for i := 0; i < n; i++ {
			if eq[i].Float() != ef[i] || dq[i].Float() != df[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQ15OpenCloseProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]fixedpt.Q15, 200)
	for i := range x {
		x[i] = fixedpt.FromFloat(rng.Float64() - 0.5)
	}
	o, err := OpenFlatQ15(x, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CloseFlatQ15(x, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if o[i] > x[i] {
			t.Fatalf("Q15 opening not anti-extensive at %d", i)
		}
		if c[i] < x[i] {
			t.Fatalf("Q15 closing not extensive at %d", i)
		}
	}
}

func TestQ15Validation(t *testing.T) {
	x := make([]fixedpt.Q15, 4)
	if _, err := ErodeFlatQ15(x, 0); err != ErrBadSE {
		t.Error("k=0 should fail")
	}
	if _, err := OpenFlatQ15(x, -1); err != ErrBadSE {
		t.Error("negative k should fail")
	}
	if _, err := CloseFlatQ15(x, 0); err != ErrBadSE {
		t.Error("k=0 closing should fail")
	}
	if _, err := MMDTransformQ15(x, 0); err != ErrBadSE {
		t.Error("scale 0 should fail")
	}
	if _, err := FilterQ15(nil, FilterConfig{Fs: 256}); err != nil {
		t.Error("empty input should not error")
	}
}

func TestFilterQ15TracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 1500
	xf := make([]float64, n)
	for i := range xf {
		xf[i] = 0.3*math.Sin(2*math.Pi*float64(i)/600) + 0.002*rng.NormFloat64()
	}
	for p := 100; p < n-10; p += 180 {
		for j := -4; j <= 4; j++ {
			xf[p+j] += 0.5 * (1 - math.Abs(float64(j))/5)
		}
	}
	xq := fixedpt.FromSlice(xf)
	cfg := FilterConfig{Fs: 256}
	ff, err := Filter(xf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fq, err := FilterQ15(xq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range ff {
		if d := math.Abs(fq[i].Float() - ff[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.005 {
		t.Errorf("Q15 filter deviates from float by %v (want <= 0.005)", worst)
	}
}

func TestMMDTransformQ15MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 300
	xf := make([]float64, n)
	for i := range xf {
		xf[i] = rng.Float64()*0.8 - 0.4
	}
	xq := fixedpt.FromSlice(xf)
	mf, err := MMDTransform(xf, 6)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := MMDTransformQ15(xq, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mf {
		if d := math.Abs(mq[i].Float() - mf[i]); d > 0.001 {
			t.Fatalf("Q15 MMD deviates at %d: %v vs %v", i, mq[i].Float(), mf[i])
		}
	}
}

// The Q15 morphology below is the integer form of the flat-SE
// operators and the conditioning filter (Section IV.A). No program runs
// it; the tests check it against the float path. Because flat-SE
// erosion/dilation are pure order statistics, the Q15 versions are exact
// (no rounding), so they match the float implementations bit-for-bit up
// to input quantisation.

// ErodeFlatQ15 computes flat erosion over Q15 samples with the monotonic
// wedge (O(1) amortised comparisons per sample), mirroring ErodeFlat.
func ErodeFlatQ15(x []fixedpt.Q15, k int) ([]fixedpt.Q15, error) {
	return slidingExtremumQ15(x, k, true)
}

// DilateFlatQ15 computes flat dilation over Q15 samples.
func DilateFlatQ15(x []fixedpt.Q15, k int) ([]fixedpt.Q15, error) {
	return slidingExtremumQ15(x, k, false)
}

func slidingExtremumQ15(x []fixedpt.Q15, k int, min bool) ([]fixedpt.Q15, error) {
	if k < 1 {
		return nil, ErrBadSE
	}
	n := len(x)
	out := make([]fixedpt.Q15, n)
	if n == 0 {
		return out, nil
	}
	half := k / 2
	at := func(j int) fixedpt.Q15 { return x[clampIdx(j, n)] }
	better := func(a, b fixedpt.Q15) bool {
		if min {
			return a <= b
		}
		return a >= b
	}
	deque := make([]int, 0, k+1)
	lo := -half
	for j := lo; j < lo+k-1; j++ {
		for len(deque) > 0 && better(at(j), at(deque[len(deque)-1])) {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, j)
	}
	for i := 0; i < n; i++ {
		j := i - half + k - 1
		for len(deque) > 0 && better(at(j), at(deque[len(deque)-1])) {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, j)
		start := i - half
		for deque[0] < start {
			deque = deque[1:]
		}
		out[i] = at(deque[0])
	}
	return out, nil
}

// OpenFlatQ15 computes opening (erosion then dilation) in Q15.
func OpenFlatQ15(x []fixedpt.Q15, k int) ([]fixedpt.Q15, error) {
	e, err := ErodeFlatQ15(x, k)
	if err != nil {
		return nil, err
	}
	return DilateFlatQ15(e, k)
}

// CloseFlatQ15 computes closing (dilation then erosion) in Q15.
func CloseFlatQ15(x []fixedpt.Q15, k int) ([]fixedpt.Q15, error) {
	d, err := DilateFlatQ15(x, k)
	if err != nil {
		return nil, err
	}
	return ErodeFlatQ15(d, k)
}

// FilterQ15 runs the full two-stage conditioning filter over Q15 samples
// (baseline correction by open/close, then open/close-average noise
// suppression), the node-resident form of Filter. The only rounding is
// the final halving of the open+close average (one arithmetic shift).
func FilterQ15(x []fixedpt.Q15, cfg FilterConfig) ([]fixedpt.Q15, error) {
	l0 := cfg.baselineSE()
	opened, err := OpenFlatQ15(x, l0)
	if err != nil {
		return nil, err
	}
	base, err := CloseFlatQ15(opened, l0+l0/2)
	if err != nil {
		return nil, err
	}
	corrected := make([]fixedpt.Q15, len(x))
	for i := range x {
		corrected[i] = fixedpt.SatSub(x[i], base[i])
	}
	o, err := OpenFlatQ15(corrected, 3)
	if err != nil {
		return nil, err
	}
	cl, err := CloseFlatQ15(corrected, 3)
	if err != nil {
		return nil, err
	}
	out := make([]fixedpt.Q15, len(x))
	for i := range out {
		// (o + cl) / 2 without intermediate overflow: halve both first.
		out[i] = fixedpt.Q15(int32(o[i])/2 + int32(cl[i])/2)
	}
	return out, nil
}

// MMDTransformQ15 computes the morphological derivative over Q15 samples
// at scale s. The division by s is an integer division; the result is
// exact for the window extrema arithmetic up to that single truncation.
func MMDTransformQ15(x []fixedpt.Q15, s int) ([]fixedpt.Q15, error) {
	if s < 1 {
		return nil, ErrBadSE
	}
	dil, err := DilateFlatQ15(x, 2*s+1)
	if err != nil {
		return nil, err
	}
	ero, err := ErodeFlatQ15(x, 2*s+1)
	if err != nil {
		return nil, err
	}
	out := make([]fixedpt.Q15, len(x))
	for i := range x {
		v := (int32(dil[i]) + int32(ero[i]) - 2*int32(x[i])) / int32(s)
		if v > 32767 {
			v = 32767
		}
		if v < -32768 {
			v = -32768
		}
		out[i] = fixedpt.Q15(v)
	}
	return out, nil
}
