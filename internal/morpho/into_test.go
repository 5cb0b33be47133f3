package morpho

import (
	"math/rand"
	"testing"
)

func noisy(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// Into variants must match their allocating counterparts exactly, and a
// reused scratch must not bleed state between calls: the wedge passes
// run through one scratch at growing window lengths, three times over,
// with the filter after them.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	x := noisy(1024, 5)
	cfg := FilterConfig{Fs: 256}
	var s Scratch
	out := make([]float64, len(x))
	for rep := 0; rep < 3; rep++ {
		for _, k := range []int{1, 3, 51, 126} {
			want, err := ErodeFlat(x, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := slidingMinInto(x, k, k/2, out, &s); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("slidingMinInto k=%d sample %d: %g != %g", k, i, out[i], want[i])
				}
			}
			want, err = DilateFlat(x, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := slidingMaxInto(x, k, k/2, out, &s); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("slidingMaxInto k=%d sample %d: %g != %g", k, i, out[i], want[i])
				}
			}
		}
		want, err := Filter(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := FilterInto(x, cfg, out, &s); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("FilterInto sample %d: %g != %g", i, out[i], want[i])
			}
		}
	}
}

// FilterInto documents that out may alias x.
func TestFilterIntoInPlace(t *testing.T) {
	x := noisy(512, 6)
	cfg := FilterConfig{Fs: 256}
	want, err := Filter(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	if err := FilterInto(x, cfg, x, &s); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("in-place FilterInto sample %d: %g != %g", i, x[i], want[i])
		}
	}
}

func TestFilterLeadsIntoMatchesFilterLeads(t *testing.T) {
	leads := [][]float64{noisy(512, 7), noisy(512, 8), noisy(400, 9)}
	cfg := FilterConfig{Fs: 256}
	want, err := FilterLeads(leads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	var out [][]float64
	for rep := 0; rep < 2; rep++ {
		out, err = FilterLeadsInto(leads, cfg, out, &s)
		if err != nil {
			t.Fatal(err)
		}
		for li := range want {
			for i := range want[li] {
				if out[li][i] != want[li][i] {
					t.Fatalf("rep %d lead %d sample %d differs", rep, li, i)
				}
			}
		}
	}
}

func TestFilterIntoZeroAlloc(t *testing.T) {
	x := noisy(1024, 10)
	cfg := FilterConfig{Fs: 256}
	out := make([]float64, len(x))
	var s Scratch
	if err := FilterInto(x, cfg, out, &s); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() {
		if err := FilterInto(x, cfg, out, &s); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Errorf("FilterInto allocates %.1f/op in steady state", a)
	}
}

func TestIntoVariantErrors(t *testing.T) {
	var s Scratch
	x := noisy(64, 11)
	out := make([]float64, 64)
	if err := slidingMinInto(x, 0, 0, out, &s); err != ErrBadSE {
		t.Errorf("k=0: got %v", err)
	}
	if err := slidingMaxInto(x, 3, 1, out[:32], &s); err != ErrBadSE {
		t.Errorf("short wedge out: got %v", err)
	}
	if err := FilterInto(x, FilterConfig{Fs: 256}, out[:32], &s); err != ErrBadSE {
		t.Errorf("short out: got %v", err)
	}
}
