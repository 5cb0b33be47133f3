// Package spline holds, in test files only, the cubic-spline
// baseline-wander estimator of ref [10] (Meyer & Keiser 1977), described
// in Section III.B of the paper: the method "searches for 'knots' in a
// characteristic silent region of the acquired signal (before each QRS
// complex), and interpolates three consecutive knots to estimate the
// baseline".
//
// A knot is placed in the PR segment of each beat — the isoelectric
// interval preceding the QRS onset — where the only signal content is the
// baseline itself. A cubic polynomial through consecutive knots then
// tracks the low-frequency wander, which is subtracted from the signal.
//
// No program runs the estimator: it needs the QRS positions first, and
// the node removes the baseline morphologically before it delineates.
// BenchmarkAblationBaselineRemoval compares the two.
package spline

import (
	"errors"
	"sort"
)

// Errors returned by the spline routines.
var (
	ErrTooFewKnots = errors.New("spline: need at least 2 knots")
	ErrKnotOrder   = errors.New("spline: knot positions must be strictly increasing")
)

// Knot is one baseline sample: position (sample index) and value.
type Knot struct {
	Pos int
	Val float64
}

// Natural is a natural cubic spline through a set of knots.
type Natural struct {
	xs []float64
	ys []float64
	m  []float64 // second derivatives at knots
}

// NewNatural builds a natural cubic spline through the knots, which must
// be strictly increasing in position.
func NewNatural(knots []Knot) (*Natural, error) {
	n := len(knots)
	if n < 2 {
		return nil, ErrTooFewKnots
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, k := range knots {
		if i > 0 && k.Pos <= knots[i-1].Pos {
			return nil, ErrKnotOrder
		}
		xs[i] = float64(k.Pos)
		ys[i] = k.Val
	}
	// Solve the tridiagonal system for second derivatives (natural
	// boundary: m[0] = m[n-1] = 0) by the Thomas algorithm.
	m := make([]float64, n)
	if n > 2 {
		sub := make([]float64, n-2)  // sub-diagonal
		diag := make([]float64, n-2) // main diagonal
		sup := make([]float64, n-2)  // super-diagonal
		rhs := make([]float64, n-2)
		for i := 1; i < n-1; i++ {
			h0 := xs[i] - xs[i-1]
			h1 := xs[i+1] - xs[i]
			sub[i-1] = h0
			diag[i-1] = 2 * (h0 + h1)
			sup[i-1] = h1
			rhs[i-1] = 6 * ((ys[i+1]-ys[i])/h1 - (ys[i]-ys[i-1])/h0)
		}
		// Forward elimination.
		for i := 1; i < n-2; i++ {
			w := sub[i] / diag[i-1]
			diag[i] -= w * sup[i-1]
			rhs[i] -= w * rhs[i-1]
		}
		// Back substitution.
		m[n-2] = rhs[n-3] / diag[n-3]
		for i := n - 4; i >= 0; i-- {
			m[i+1] = (rhs[i] - sup[i]*m[i+2]) / diag[i]
		}
	}
	return &Natural{xs: xs, ys: ys, m: m}, nil
}

// At evaluates the spline at position t (extrapolating linearly outside
// the knot range using the boundary slopes).
func (s *Natural) At(t float64) float64 {
	n := len(s.xs)
	if t <= s.xs[0] {
		// Linear extrapolation with the spline's left boundary slope.
		h := s.xs[1] - s.xs[0]
		slope := (s.ys[1]-s.ys[0])/h - h*(2*s.m[0]+s.m[1])/6
		return s.ys[0] + slope*(t-s.xs[0])
	}
	if t >= s.xs[n-1] {
		h := s.xs[n-1] - s.xs[n-2]
		slope := (s.ys[n-1]-s.ys[n-2])/h + h*(s.m[n-2]+2*s.m[n-1])/6
		return s.ys[n-1] + slope*(t-s.xs[n-1])
	}
	// Find the segment by binary search.
	i := sort.SearchFloat64s(s.xs, t)
	if s.xs[i] > t {
		i--
	}
	if i >= n-1 {
		i = n - 2
	}
	h := s.xs[i+1] - s.xs[i]
	a := (s.xs[i+1] - t) / h
	b := (t - s.xs[i]) / h
	return a*s.ys[i] + b*s.ys[i+1] +
		((a*a*a-a)*s.m[i]+(b*b*b-b)*s.m[i+1])*h*h/6
}

// Sample evaluates the spline at every integer position 0..n-1.
func (s *Natural) Sample(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.At(float64(i))
	}
	return out
}

// FindPRKnots places one knot per beat in the PR silent region: for each
// QRS location, the knot sits prOffset samples before it and its value is
// the mean of x over a window of prWin samples ending there. QRS
// positions too close to the record boundary are skipped. Passing
// prOffset<=0 or prWin<=0 selects defaults for the given sampling rate
// (66 ms offset, 20 ms window).
func FindPRKnots(x []float64, qrs []int, fs float64, prOffset, prWin int) []Knot {
	if prOffset <= 0 {
		prOffset = int(0.066*fs + 0.5)
	}
	if prWin <= 0 {
		prWin = int(0.020*fs + 0.5)
		if prWin < 1 {
			prWin = 1
		}
	}
	var knots []Knot
	for _, q := range qrs {
		end := q - prOffset
		start := end - prWin
		if start < 0 || end > len(x) || end <= start {
			continue
		}
		sum := 0.0
		for i := start; i < end; i++ {
			sum += x[i]
		}
		knots = append(knots, Knot{Pos: (start + end) / 2, Val: sum / float64(end-start)})
	}
	return knots
}

// RemoveBaseline estimates the baseline through the PR knots derived from
// the given QRS positions and subtracts it from x, returning the
// corrected signal and the estimate. If fewer than two knots can be
// placed it returns x unchanged (copy) and a zero baseline.
func RemoveBaseline(x []float64, qrs []int, fs float64) (corrected, baseline []float64) {
	knots := FindPRKnots(x, qrs, fs, 0, 0)
	corrected = make([]float64, len(x))
	baseline = make([]float64, len(x))
	if len(knots) < 2 {
		copy(corrected, x)
		return corrected, baseline
	}
	sp, err := NewNatural(knots)
	if err != nil {
		copy(corrected, x)
		return corrected, baseline
	}
	for i := range x {
		b := sp.At(float64(i))
		baseline[i] = b
		corrected[i] = x[i] - b
	}
	return corrected, baseline
}
