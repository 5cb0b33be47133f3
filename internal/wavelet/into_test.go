package wavelet

import (
	"math/rand"
	"testing"
)

func randSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// The Into variants must be bit-identical to their allocating
// counterparts: the parallel gateway engine relies on reused scratch
// producing exactly the results of the fresh-allocation path.
func TestForwardIntoMatchesForward(t *testing.T) {
	for _, w := range allWavelets() {
		for _, levels := range []int{1, 3, 5} {
			x := randSignal(512, 11)
			want, err := w.Forward(x, levels)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, len(x))
			var s Scratch
			for rep := 0; rep < 3; rep++ { // reused scratch must stay exact
				if err := w.ForwardInto(x, levels, out, &s); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("%s L%d rep%d: out[%d]=%g want %g", w.Name(), levels, rep, i, out[i], want[i])
					}
				}
			}
		}
	}
}

func TestInverseIntoMatchesInverse(t *testing.T) {
	for _, w := range allWavelets() {
		for _, levels := range []int{1, 2, 5} {
			x := randSignal(256, 12)
			c, err := w.Forward(x, levels)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.Inverse(c, levels)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, len(c))
			var s Scratch
			for rep := 0; rep < 3; rep++ {
				if err := w.InverseInto(c, levels, out, &s); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("%s L%d rep%d: out[%d]=%g want %g", w.Name(), levels, rep, i, out[i], want[i])
					}
				}
			}
		}
	}
}

func TestForwardIntoErrors(t *testing.T) {
	w := Daubechies8()
	var s Scratch
	out := make([]float64, 512)
	if err := w.ForwardInto(randSignal(512, 1), 0, out, &s); err != ErrLevels {
		t.Fatalf("levels=0: got %v", err)
	}
	if err := w.ForwardInto(randSignal(500, 1), 5, out[:500], &s); err != ErrLength {
		t.Fatalf("bad length: got %v", err)
	}
	if err := w.ForwardInto(randSignal(512, 1), 5, out[:256], &s); err != ErrLength {
		t.Fatalf("bad out length: got %v", err)
	}
	if err := w.InverseInto(randSignal(512, 1), 0, out, &s); err != ErrLevels {
		t.Fatalf("inverse levels=0: got %v", err)
	}
	if err := w.InverseInto(randSignal(512, 1), 5, out[:256], &s); err != ErrLength {
		t.Fatalf("inverse bad out length: got %v", err)
	}
}

func TestAtrousIntoMatchesAtrous(t *testing.T) {
	x := randSignal(1000, 13)
	want, err := Atrous(x, AtrousScales)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	var details [][]float64
	for rep := 0; rep < 3; rep++ {
		details, err = AtrousInto(x, AtrousScales, details, &s)
		if err != nil {
			t.Fatal(err)
		}
		if len(details) != len(want) {
			t.Fatalf("got %d scales, want %d", len(details), len(want))
		}
		for k := range want {
			for i := range want[k] {
				if details[k][i] != want[k][i] {
					t.Fatalf("rep%d scale %d sample %d: %g != %g", rep, k, i, details[k][i], want[k][i])
				}
			}
		}
	}
	if _, err := AtrousInto(x, 0, nil, &s); err != ErrLevels {
		t.Fatalf("scales=0: got %v", err)
	}
	if got, err := AtrousInto(nil, 3, details, &s); err != nil || len(got) != 0 {
		t.Fatalf("empty input: got %v, %v", got, err)
	}
}

// Warm Into paths must be allocation-free: this is the contract the
// pooled CS decoder and gateway engine build on.
func TestIntoVariantsZeroAlloc(t *testing.T) {
	w := Daubechies8()
	x := randSignal(512, 14)
	c, err := w.Forward(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 512)
	var s Scratch
	if err := w.ForwardInto(x, 5, out, &s); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := w.ForwardInto(x, 5, out, &s); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Errorf("ForwardInto allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := w.InverseInto(c, 5, out, &s); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Errorf("InverseInto allocates %.1f/op", a)
	}
	details, err := AtrousInto(x, AtrousScales, nil, &s)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := AtrousInto(x, AtrousScales, details, &s); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Errorf("AtrousInto allocates %.1f/op", a)
	}
}

// Short inputs leave no interior region for the split-loop à-trous
// stage (every tap reflects); outputs must still match the generic
// transform bit for bit at every length around the hole boundaries.
func TestAtrousIntoShortInputsMatch(t *testing.T) {
	var s Scratch
	var details [][]float64
	for n := 1; n <= 70; n++ {
		x := randSignal(n, int64(100+n))
		want, err := Atrous(x, AtrousScales)
		if err != nil {
			t.Fatal(err)
		}
		details, err = AtrousInto(x, AtrousScales, details, &s)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			for i := range want[k] {
				if details[k][i] != want[k][i] {
					t.Fatalf("n=%d scale %d sample %d: %g != %g", n, k, i, details[k][i], want[k][i])
				}
			}
		}
	}
}
