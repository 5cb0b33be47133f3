package dsp

import (
	"math"
)

// This file implements multi-lead source combination (Section III.B).
// Ref [11] presents "simple root mean square (RMS) aggregation of inputs
// as a light-weight, yet effective, implementation strategy" for reducing
// noise before delineation: the leads are combined into one signal whose
// sample i is the RMS across leads of sample i.

// CombineRMS aggregates multiple equal-length leads into a single signal
// by per-sample root mean square. It panics if leads have different
// lengths; an empty lead set returns nil.
func CombineRMS(leads [][]float64) []float64 {
	if len(leads) == 0 {
		return nil
	}
	return CombineRMSInto(leads, nil)
}

// CombineRMSInto is CombineRMS writing into out, which is reused when its
// capacity suffices and grown otherwise — allocation-free with a warm
// buffer. It returns the (possibly regrown) result slice.
func CombineRMSInto(leads [][]float64, out []float64) []float64 {
	if len(leads) == 0 {
		return out[:0]
	}
	n := len(leads[0])
	for _, l := range leads[1:] {
		if len(l) != n {
			panic("dsp: CombineRMS lead length mismatch")
		}
	}
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	inv := 1 / float64(len(leads))
	for i := 0; i < n; i++ {
		s := 0.0
		for _, l := range leads {
			s += l[i] * l[i]
		}
		out[i] = math.Sqrt(s * inv)
	}
	return out
}
