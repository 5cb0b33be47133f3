package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allWavelets returns the 8-tap bases the tests run: Daubechies8, the
// sparsity basis, and Symlet8, whose taps differ in sign and order.
func allWavelets() []*Orthogonal {
	return []*Orthogonal{Daubechies8(), Symlet8()}
}

func TestForwardRejectsBadArgs(t *testing.T) {
	w := Daubechies8()
	if _, err := w.Forward(make([]float64, 100), 3); err != ErrLength {
		t.Error("length not divisible by 2^levels should fail")
	}
	if _, err := w.Forward(make([]float64, 64), 0); err != ErrLevels {
		t.Error("zero levels should fail")
	}
	if _, err := w.Forward(nil, 1); err != ErrLength {
		t.Error("empty signal should fail")
	}
	if _, err := w.Inverse(make([]float64, 100), 3); err != ErrLength {
		t.Error("inverse with bad length should fail")
	}
	if _, err := w.Inverse(make([]float64, 64), 0); err != ErrLevels {
		t.Error("inverse with zero levels should fail")
	}
}

func TestPerfectReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range allWavelets() {
		for _, levels := range []int{1, 2, 4} {
			n := 256
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			c, err := w.Forward(x, levels)
			if err != nil {
				t.Fatalf("%s Forward: %v", w.Name(), err)
			}
			y, err := w.Inverse(c, levels)
			if err != nil {
				t.Fatalf("%s Inverse: %v", w.Name(), err)
			}
			for i := range x {
				if math.Abs(x[i]-y[i]) > 1e-10 {
					t.Fatalf("%s L=%d: reconstruction error %v at %d",
						w.Name(), levels, x[i]-y[i], i)
				}
			}
		}
	}
}

// Property: perfect reconstruction holds for random signals and any valid
// level count (testing/quick drives the inputs).
func TestPerfectReconstructionProperty(t *testing.T) {
	w := Daubechies8()
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64, lv uint8) bool {
		levels := int(lv%4) + 1
		n := 512
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * (1 + rng.Float64())
		}
		c, err := w.Forward(x, levels)
		if err != nil {
			return false
		}
		y, err := w.Inverse(c, levels)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: orthogonality — Parseval's identity, energy preserved.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range allWavelets() {
		x := make([]float64, 512)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c, err := w.Forward(x, 4)
		if err != nil {
			t.Fatal(err)
		}
		var ex, ec float64
		for i := range x {
			ex += x[i] * x[i]
			ec += c[i] * c[i]
		}
		if math.Abs(ex-ec)/ex > 1e-10 {
			t.Errorf("%s: energy not preserved: %v vs %v", w.Name(), ex, ec)
		}
	}
}

func TestFilterNormalisation(t *testing.T) {
	// Analysis low-pass must sum to sqrt(2) and have unit energy.
	for _, w := range allWavelets() {
		var sum, energy float64
		for _, h := range w.h {
			sum += h
			energy += h * h
		}
		if math.Abs(sum-math.Sqrt2) > 1e-10 {
			t.Errorf("%s: filter sum %v, want sqrt(2)", w.Name(), sum)
		}
		if math.Abs(energy-1) > 1e-10 {
			t.Errorf("%s: filter energy %v, want 1", w.Name(), energy)
		}
	}
}

func TestConstantSignalConcentratesInApprox(t *testing.T) {
	// A constant signal has all energy in the approximation band; details
	// must vanish (vanishing moments).
	for _, w := range allWavelets() {
		n, levels := 256, 3
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		c, err := w.Forward(x, levels)
		if err != nil {
			t.Fatal(err)
		}
		alen := n >> uint(levels)
		for i := alen; i < n; i++ {
			if math.Abs(c[i]) > 1e-10 {
				t.Errorf("%s: detail coefficient %d = %v for constant input",
					w.Name(), i, c[i])
				break
			}
		}
	}
}

func TestECGLikeSignalIsSparse(t *testing.T) {
	// The CS premise: a spiky quasi-periodic signal compacts most energy
	// into few wavelet coefficients. Build a crude spike train + slow wave
	// and check the top 10% of coefficients carry >99% of the energy.
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.1 * math.Sin(2*math.Pi*float64(i)/256)
	}
	for p := 64; p < n; p += 200 {
		x[p] += 1.5
		x[p-1] += 0.7
		x[p+1] += 0.7
	}
	w := Daubechies8()
	c, err := w.Forward(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	abs := make([]float64, n)
	var total float64
	for i, v := range c {
		abs[i] = v * v
		total += v * v
	}
	// Select top 10% by magnitude (simple partial selection).
	k := n / 10
	top := 0.0
	for sel := 0; sel < k; sel++ {
		best := 0
		for i := 1; i < n; i++ {
			if abs[i] > abs[best] {
				best = i
			}
		}
		top += abs[best]
		abs[best] = -1
	}
	if top/total < 0.99 {
		t.Errorf("ECG-like signal not sparse in db8: top-10%% energy share %.4f", top/total)
	}
}

func TestLevelSlices(t *testing.T) {
	sl, err := LevelSlices(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 8}, {8, 16}, {16, 32}, {32, 64}}
	if len(sl) != len(want) {
		t.Fatalf("LevelSlices count = %d, want %d", len(sl), len(want))
	}
	for i := range want {
		if sl[i] != want[i] {
			t.Errorf("LevelSlices[%d] = %v, want %v", i, sl[i], want[i])
		}
	}
	if _, err := LevelSlices(100, 3); err == nil {
		t.Error("non-divisible length should fail")
	}
	if _, err := LevelSlices(64, 0); err == nil {
		t.Error("zero levels should fail")
	}
}

func TestLevelSlicesCoverWholeVector(t *testing.T) {
	n, levels := 512, 5
	sl, err := LevelSlices(n, levels)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	prevEnd := 0
	for _, r := range sl {
		if r[0] != prevEnd {
			t.Errorf("gap before range %v", r)
		}
		covered += r[1] - r[0]
		prevEnd = r[1]
	}
	if covered != n {
		t.Errorf("ranges cover %d samples, want %d", covered, n)
	}
}

// The extra basis and the allocating transforms below are read only by
// the tests; programs run Daubechies8 through ForwardInto/InverseInto.

// Name returns the conventional name of a basis the tests build, told
// apart by the sign of the first tap.
func (w *Orthogonal) Name() string {
	if w.h[0] > 0 {
		return "db8"
	}
	return "sym8"
}

// Symlet8 returns the 8-tap least-asymmetric Daubechies (sym4) wavelet.
func Symlet8() *Orthogonal {
	return newOrthogonal([8]float64{
		-0.07576571478927333, -0.02963552764599851,
		0.49761866763201545, 0.80373875180591614,
		0.29785779560527736, -0.09921954357684722,
		-0.01260396726203783, 0.03222310060404270,
	})
}

// Forward computes a 'levels'-deep periodic DWT of x and returns the
// coefficient vector laid out as [a_L | d_L | d_{L-1} | ... | d_1], the
// standard pyramid order. len(x) must pass CheckLength.
func (w *Orthogonal) Forward(x []float64, levels int) ([]float64, error) {
	out := make([]float64, len(x))
	var s Scratch
	if err := w.ForwardInto(x, levels, out, &s); err != nil {
		return nil, err
	}
	return out, nil
}

// Inverse reconstructs the signal from a pyramid-ordered coefficient
// vector produced by Forward with the same number of levels.
func (w *Orthogonal) Inverse(c []float64, levels int) ([]float64, error) {
	out := make([]float64, len(c))
	var s Scratch
	if err := w.InverseInto(c, levels, out, &s); err != nil {
		return nil, err
	}
	return out, nil
}

// LevelSlices describes the pyramid layout: it returns the [start,end)
// ranges of the approximation band followed by detail bands d_L..d_1 for
// a length-n, 'levels'-deep transform. The tests and Denoise use it to
// address the bands.
func LevelSlices(n, levels int) ([][2]int, error) {
	if levels < 1 {
		return nil, ErrLevels
	}
	if n == 0 || n%(1<<uint(levels)) != 0 {
		return nil, ErrLength
	}
	var out [][2]int
	alen := n >> uint(levels)
	out = append(out, [2]int{0, alen})
	pos := alen
	for lev := levels; lev >= 1; lev-- {
		dlen := n >> uint(lev)
		out = append(out, [2]int{pos, pos + dlen})
		pos += dlen
	}
	return out, nil
}
