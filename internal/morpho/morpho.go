// Package morpho implements 1-D mathematical morphology over sampled
// bio-signals: erosion, dilation, opening and closing with flat
// structuring elements, the morphological noise filter of ref [9]
// (Sun, Chan, Krishnan 2002) and the multiscale morphological-derivative
// transform used for ECG delineation in ref [13].
//
// Section IV.A of the paper singles out the embedded optimisation
// implemented here: "if a flat structuring element is employed, the
// computational demands of the morphological operations can be
// drastically reduced by keeping track of only the center value, maximum
// and minimum in a sliding window of the input signal". ErodeFlat and
// DilateFlat therefore use the van Herk/Gil-Werman sliding-window
// algorithm, which costs O(1) comparisons per sample independent of the
// structuring-element length; the naive O(k) variants are retained for
// the ablation benchmark.
package morpho

import "errors"

// ErrBadSE is returned when a structuring-element length is not positive.
var ErrBadSE = errors.New("morpho: structuring element length must be >= 1")

// Scratch holds the reusable work buffers of the Into operator variants.
// A zero Scratch is ready to use; buffers grow on demand. One Scratch
// serves one operator chain at a time (not concurrency-safe). Buffers
// handed to Into functions as out must be caller-owned — never slices
// returned by this scratch.
type Scratch struct {
	idx  []int
	vals []float64
	bufs [4][]float64
}

// deque returns the wedge index buffer, grown to n entries.
func (s *Scratch) deque(n int) []int {
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	return s.idx[:n]
}

// values returns the wedge value buffer, grown to n entries. It rides
// alongside the index buffer so wedge comparisons read cached values
// instead of re-indexing the input through border clamping.
func (s *Scratch) values(n int) []float64 {
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	return s.vals[:n]
}

// buffer returns work buffer i, grown to n samples.
func (s *Scratch) buffer(i, n int) []float64 {
	if cap(s.bufs[i]) < n {
		s.bufs[i] = make([]float64, n)
	}
	return s.bufs[i][:n]
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// ErodeFlat computes flat erosion with a centred window of length k in
// O(1) amortised comparisons per sample (monotonic-deque sliding
// minimum). Borders use edge replication, matching the naive variant
// exactly.
func ErodeFlat(x []float64, k int) ([]float64, error) {
	return slidingExtremumAlloc(x, k, true)
}

// DilateFlat computes flat dilation with a centred window of length k in
// O(1) amortised comparisons per sample.
func DilateFlat(x []float64, k int) ([]float64, error) {
	return slidingExtremumAlloc(x, k, false)
}

// ErodeFlatInto is ErodeFlat writing into out (len(x)), drawing the
// deque from s — allocation-free in steady state. out must not alias x.
func ErodeFlatInto(x []float64, k int, out []float64, s *Scratch) error {
	return slidingMinInto(x, k, out, s)
}

// DilateFlatInto is DilateFlat writing into out (len(x)), drawing the
// deque from s. out must not alias x.
func DilateFlatInto(x []float64, k int, out []float64, s *Scratch) error {
	return slidingMaxInto(x, k, out, s)
}

func slidingExtremumAlloc(x []float64, k int, min bool) ([]float64, error) {
	out := make([]float64, len(x))
	var s Scratch
	var err error
	if min {
		err = slidingMinInto(x, k, out, &s)
	} else {
		err = slidingMaxInto(x, k, out, &s)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// slidingMinInto and slidingMaxInto implement the monotonic wedge:
// indices whose values can still become the window extremum, in
// extremum-first order. They are deliberately monomorphic twins —
// sliding extrema dominate the conditioning filter's CPU time, and the
// earlier shared implementation spent most of it calling `at`/`better`
// closures. The wedge carries each candidate's value alongside its
// index, so pops and head reads never re-index the input through border
// clamping; the selected output bits are unchanged because comparisons
// only choose which input sample to forward.
//
// Virtual padded signal of length n + k (edge replication); the window
// for output i covers virtual indices [i-half, i-half+k-1]. The wedge
// only ever advances its head, so flat n+k buffers replace a
// reallocating deque. out must not alias x.
func slidingMinInto(x []float64, k int, out []float64, s *Scratch) error {
	if k < 1 {
		return ErrBadSE
	}
	n := len(x)
	if len(out) != n {
		return ErrBadSE
	}
	if n == 0 {
		return nil
	}
	half := k / 2
	idx := s.deque(n + k)
	vals := s.values(n + k)
	head, tail := 0, 0 // live wedge is idx/vals[head:tail]
	// Pre-fill the first window except its last element.
	for j := -half; j < -half+k-1; j++ {
		v := x[clampIdx(j, n)]
		for tail > head && v <= vals[tail-1] {
			tail--
		}
		idx[tail], vals[tail] = j, v
		tail++
	}
	for i := 0; i < n; i++ {
		j := i - half + k - 1 // new trailing element entering the window
		v := x[clampIdx(j, n)]
		for tail > head && v <= vals[tail-1] {
			tail--
		}
		idx[tail], vals[tail] = j, v
		tail++
		// Expire indices left of the window.
		start := i - half
		for idx[head] < start {
			head++
		}
		out[i] = vals[head]
	}
	return nil
}

func slidingMaxInto(x []float64, k int, out []float64, s *Scratch) error {
	if k < 1 {
		return ErrBadSE
	}
	n := len(x)
	if len(out) != n {
		return ErrBadSE
	}
	if n == 0 {
		return nil
	}
	half := k / 2
	idx := s.deque(n + k)
	vals := s.values(n + k)
	head, tail := 0, 0
	for j := -half; j < -half+k-1; j++ {
		v := x[clampIdx(j, n)]
		for tail > head && v >= vals[tail-1] {
			tail--
		}
		idx[tail], vals[tail] = j, v
		tail++
	}
	for i := 0; i < n; i++ {
		j := i - half + k - 1
		v := x[clampIdx(j, n)]
		for tail > head && v >= vals[tail-1] {
			tail--
		}
		idx[tail], vals[tail] = j, v
		tail++
		start := i - half
		for idx[head] < start {
			head++
		}
		out[i] = vals[head]
	}
	return nil
}

// OpenFlatInto computes morphological opening (erosion then dilation)
// with a flat structuring element of length k into out, with
// intermediates from s: it removes positive peaks narrower than k. out
// must not alias x.
func OpenFlatInto(x []float64, k int, out []float64, s *Scratch) error {
	t := s.buffer(0, len(x))
	if err := ErodeFlatInto(x, k, t, s); err != nil {
		return err
	}
	return DilateFlatInto(t, k, out, s)
}

// CloseFlatInto computes morphological closing (dilation then erosion)
// into out, with intermediates from s: it fills negative pits narrower
// than k. out must not alias x.
func CloseFlatInto(x []float64, k int, out []float64, s *Scratch) error {
	t := s.buffer(0, len(x))
	if err := DilateFlatInto(x, k, t, s); err != nil {
		return err
	}
	return ErodeFlatInto(t, k, out, s)
}
