package morpho

import (
	"math"
	"math/rand"
	"testing"
)

// synthBeatTrain builds a crude ECG-like signal: narrow tall R spikes over
// a flat line, with optional baseline drift and impulse noise.
func synthBeatTrain(n int, drift, impulses bool, rng *rand.Rand) (x []float64, rIdx []int) {
	x = make([]float64, n)
	for p := 50; p < n-10; p += 180 {
		// Triangular QRS ~9 samples wide.
		for i := -4; i <= 4; i++ {
			x[p+i] += 1.2 * (1 - math.Abs(float64(i))/5)
		}
		rIdx = append(rIdx, p)
	}
	if drift {
		for i := range x {
			x[i] += 0.8 * math.Sin(2*math.Pi*float64(i)/600)
		}
	}
	if impulses {
		for i := 25; i < n; i += 97 {
			x[i] += 0.5 * rng.NormFloat64()
		}
	}
	return x, rIdx
}

func TestBaselineEstimateTracksDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 2000
	x, _ := synthBeatTrain(n, true, false, rng)
	cfg := FilterConfig{Fs: 256}
	base, err := BaselineEstimate(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate must follow the sine drift: correlation with the known
	// drift should be high.
	drift := make([]float64, n)
	for i := range drift {
		drift[i] = 0.8 * math.Sin(2*math.Pi*float64(i)/600)
	}
	var sxy, sxx, syy float64
	for i := 100; i < n-100; i++ {
		a, b := base[i], drift[i]
		sxy += a * b
		sxx += a * a
		syy += b * b
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r < 0.9 {
		t.Errorf("baseline estimate correlation with drift = %v, want > 0.9", r)
	}
}

func TestRemoveBaselineFlattens(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2000
	x, _ := synthBeatTrain(n, true, false, rng)
	cfg := FilterConfig{Fs: 256}
	y, err := RemoveBaseline(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Isoelectric segments (between beats) should be near zero after
	// correction even though the input drifted by ±0.8.
	worst := 0.0
	for i := 120; i < n-120; i += 180 { // midway between beats
		if v := math.Abs(y[i]); v > worst {
			worst = v
		}
	}
	if worst > 0.25 {
		t.Errorf("isoelectric level after baseline removal = %v, want < 0.25", worst)
	}
}

func TestRemoveBaselinePreservesQRS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 2000
	x, rIdx := synthBeatTrain(n, true, false, rng)
	cfg := FilterConfig{Fs: 256}
	y, err := RemoveBaseline(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rIdx {
		if p < 50 || p > n-50 {
			continue
		}
		// R amplitude relative to local isoelectric level must survive.
		amp := y[p] - y[p-40]
		if amp < 0.9 {
			t.Errorf("R amplitude at %d reduced to %v after baseline removal", p, amp)
		}
	}
}

func TestSuppressNoiseClipsImpulses(t *testing.T) {
	n := 600
	x := make([]float64, n)
	x[100], x[300] = 1.0, -1.0 // isolated impulses
	y, err := SuppressNoise(x)
	if err != nil {
		t.Fatal(err)
	}
	// The open/close average halves single-sample impulses at worst; with
	// SE=3 an isolated spike is fully removed by opening and survives in
	// closing, so the average is half. Check strong attenuation.
	if math.Abs(y[100]) > 0.55 || math.Abs(y[300]) > 0.55 {
		t.Errorf("impulses not attenuated: %v, %v", y[100], y[300])
	}
}

func TestSuppressNoisePreservesWideWaves(t *testing.T) {
	n := 512
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 128) // wide smooth wave
	}
	y, err := SuppressNoise(x)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := 10; i < n-10; i++ {
		if d := math.Abs(y[i] - x[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.02 {
		t.Errorf("smooth wave distorted by noise suppression: max diff %v", maxDiff)
	}
}

func TestFilterEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 2000
	x, rIdx := synthBeatTrain(n, true, true, rng)
	cfg := FilterConfig{Fs: 256}
	y, err := Filter(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != n {
		t.Fatalf("filtered length %d, want %d", len(y), n)
	}
	// QRS peaks must remain the dominant features.
	for _, p := range rIdx[1 : len(rIdx)-1] {
		if y[p] < 0.5 {
			t.Errorf("beat at %d attenuated to %v", p, y[p])
		}
	}
}

func TestFilterLeads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, _ := synthBeatTrain(500, false, false, rng)
	b, _ := synthBeatTrain(700, true, false, rng)
	out, err := FilterLeads([][]float64{a, b}, FilterConfig{Fs: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0]) != 500 || len(out[1]) != 700 {
		t.Error("FilterLeads changed shapes")
	}
}

func TestFilterConfigDefaults(t *testing.T) {
	for _, c := range []struct {
		fs   float64
		want int
	}{
		{256, 51}, // 0.2*256 rounded
		{250, 50}, // an even l0
		{10, 3},   // the floor
	} {
		if got := (FilterConfig{Fs: c.fs}).baselineSE(); got != c.want {
			t.Errorf("Fs %v: baseline SE = %d, want %d", c.fs, got, c.want)
		}
	}
}

// The allocating filter stages below are read only by the tests;
// programs call the Into forms.

// BaselineEstimate returns the morphological baseline estimate of x:
// opening with SE length L0 followed by closing with 1.5*L0. Subtracting
// it removes baseline wander without distorting the QRS complex.
func BaselineEstimate(x []float64, cfg FilterConfig) ([]float64, error) {
	l0 := cfg.baselineSE()
	opened, err := OpenFlat(x, l0)
	if err != nil {
		return nil, err
	}
	return CloseFlat(opened, l0+l0/2)
}

// RemoveBaseline returns x minus its morphological baseline estimate.
func RemoveBaseline(x []float64, cfg FilterConfig) ([]float64, error) {
	base, err := BaselineEstimate(x, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - base[i]
	}
	return out, nil
}

// SuppressNoise applies the open/close averaging stage of ref [9]: the
// result is (opening + closing)/2 with the 3-sample flat SE, clipping
// impulsive artifacts of both polarities.
func SuppressNoise(x []float64) ([]float64, error) {
	o, err := OpenFlat(x, 3)
	if err != nil {
		return nil, err
	}
	cl, err := CloseFlat(x, 3)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = 0.5 * (o[i] + cl[i])
	}
	return out, nil
}

// Filter runs the full two-stage conditioning filter (baseline correction
// then noise suppression). This is the "3L-MF" kernel of Figure 7 when
// applied to each of the three leads.
func Filter(x []float64, cfg FilterConfig) ([]float64, error) {
	out := make([]float64, len(x))
	var s Scratch
	if err := FilterInto(x, cfg, out, &s); err != nil {
		return nil, err
	}
	return out, nil
}
