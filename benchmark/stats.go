package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spread is the interquartile range as a share of the median — the
// steadiness figure BENCHMARK.json bounds are checked against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.NaN()
	}
	return (percentile(xs, 0.75) - percentile(xs, 0.25)) / m
}
