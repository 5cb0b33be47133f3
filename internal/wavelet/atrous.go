package wavelet

// This file implements the undecimated (à-trous) filter bank with the
// quadratic-spline derivative wavelet, the transform behind the
// wavelet-based ECG delineator of ref [12] (Rincón et al., BSN 2009) and
// the classic Martínez et al. delineator it descends from.
//
// The prototype filters are
//
//	H(z) = 1/8 (z + 3 + 3 z^{-1} + z^{-2})   (low-pass, smoothing)
//	G(z) = 2 (z - 1)                          (high-pass, derivative)
//
// whose coefficients are dyadic rationals: on the node the whole bank is
// computed with shifts and adds only — the "proper choice of the filter
// bank coefficients" the paper credits for the efficient embedded
// implementation (Section IV.A). At scale 2^k the filters are upsampled
// by inserting 2^(k-1)-1 zeros ("holes", trous). The output at scale 2^k
// is proportional to the smoothed derivative of the input at that scale:
// wave peaks become zero-crossings flanked by a modulus-maxima pair of
// opposite signs.

// AtrousScales is the number of dyadic scales (2^1..2^5) produced by the
// delineation filter bank, matching ref [12].
const AtrousScales = 5

// atrousLow and atrousHigh are the prototype filter taps.
var (
	atrousLow  = []float64{0.125, 0.375, 0.375, 0.125}
	atrousHigh = []float64{2, -2}
)

// AtrousInto computes the undecimated quadratic-spline wavelet transform
// of x at the given number of dyadic scales (1..8), one equal-length
// signal per scale, details[k] being the transform at scale 2^(k+1).
// Border samples use symmetric extension; invalid scale counts return
// ErrLevels. details (and each details[k]) is reused when its capacity
// suffices and reallocated otherwise, and all intermediates come from
// s — so a warm (details, s) pair makes the transform allocation-free.
// It returns the (possibly regrown) details slice.
func AtrousInto(x []float64, scales int, details [][]float64, s *Scratch) ([][]float64, error) {
	if scales < 1 || scales > 8 {
		return nil, ErrLevels
	}
	if len(x) == 0 {
		return details[:0], nil
	}
	n := len(x)
	if cap(details) < scales {
		grown := make([][]float64, scales)
		copy(grown, details)
		details = grown
	}
	details = details[:scales]
	for k := range details {
		if cap(details[k]) < n {
			details[k] = make([]float64, n)
		}
		details[k] = details[k][:n]
	}
	cur, next := s.buffers(n)
	copy(cur, x)
	for sc := 0; sc < scales; sc++ {
		hole := 1 << uint(sc)
		atrousStageInto(cur, details[sc], next, hole)
		cur, next = next, cur
	}
	return details, nil
}

// atrousStageInto computes one à-trous stage (detail w and next
// approximation) from cur. Interior samples — where every tap lands
// inside [0,n) — skip the symmetric-reflection index mapping entirely;
// the border loops keep the generic tap iteration. The accumulation
// statement shape (acc += tap * sample, one statement per tap, in tap
// order) matches the generic loop exactly so compilers see the same
// floating-point contraction opportunities and the outputs stay
// bit-identical.
func atrousStageInto(cur, w, next []float64, hole int) {
	n := len(cur)
	// Detail (high-pass): taps at j = i, i-hole. Interior: i >= hole.
	hiLo := hole
	if hiLo > n {
		hiLo = n
	}
	for i := 0; i < hiLo; i++ {
		var acc float64
		for k, g := range atrousHigh {
			j := i - k*hole
			acc += g * cur[reflect(j, n)]
		}
		w[i] = acc
	}
	for i := hiLo; i < n; i++ {
		var acc float64
		acc += 2 * cur[i]
		acc += -2 * cur[i-hole]
		w[i] = acc
	}
	// Next approximation (low-pass): taps at j = i+hole, i, i-hole,
	// i-2*hole. Interior: i >= 2*hole and i+hole < n.
	loLo := 2 * hole
	if loLo > n {
		loLo = n
	}
	loHi := n - hole
	if loHi < loLo {
		loHi = loLo
	}
	for i := 0; i < loLo; i++ {
		var acc float64
		for k, h := range atrousLow {
			j := i - (k-1)*hole // centre the 4-tap kernel
			acc += h * cur[reflect(j, n)]
		}
		next[i] = acc
	}
	for i := loLo; i < loHi; i++ {
		var acc float64
		acc += 0.125 * cur[i+hole]
		acc += 0.375 * cur[i]
		acc += 0.375 * cur[i-hole]
		acc += 0.125 * cur[i-2*hole]
		next[i] = acc
	}
	for i := loHi; i < n; i++ {
		var acc float64
		for k, h := range atrousLow {
			j := i - (k-1)*hole
			acc += h * cur[reflect(j, n)]
		}
		next[i] = acc
	}
}

// reflect maps an out-of-range index into [0,n) by symmetric (mirror)
// extension.
func reflect(j, n int) int {
	for j < 0 || j >= n {
		if j < 0 {
			j = -j - 1
		}
		if j >= n {
			j = 2*n - 1 - j
		}
	}
	return j
}
