package fixedpt

// This file implements the piecewise-linear approximation of the Gaussian
// kernel described in Section IV.A of the paper: "a four-segments
// linearization is shown to achieve close-to-optimal results [14], while
// vastly simplifying the computational requirements".
//
// The function approximated is g(u) = exp(-u) for u >= 0 (the classifier
// evaluates exp(-d²/2σ²) with the squared distance pre-scaled into u).
// Four line segments cover u in [0, 4); beyond 4 the Gaussian is treated
// as zero, which matches the truncation used by the embedded classifier.

// expSegment is one linear piece a - b*u of the exp(-u) approximation,
// with a and b in Q15 over the segment's local coordinate.
type expSegment struct {
	lo, hi float64 // segment domain
	a, b   float64 // value = a - b*(u-lo)
}

// The four segments interpolate exp(-u) at the breakpoints
// u = 0, 0.5, 1.25, 2.25, 4.0 — spacing chosen denser near zero where the
// curvature is largest, mirroring the design in ref [14].
var expSegments = [4]expSegment{
	{0.00, 0.50, 1.000000, (1.000000 - 0.606531) / 0.50},
	{0.50, 1.25, 0.606531, (0.606531 - 0.286505) / 0.75},
	{1.25, 2.25, 0.286505, (0.286505 - 0.105399) / 1.00},
	{2.25, 4.00, 0.105399, (0.105399 - 0.018316) / 1.75},
}

// ExpNegLin4 approximates exp(-u) for u >= 0 with the paper's four-segment
// linearization. Inputs beyond 4 return 0; negative inputs are clamped to
// 0 (returning 1).
func ExpNegLin4(u float64) float64 {
	if u <= 0 {
		return 1
	}
	if u >= 4 {
		return 0
	}
	for _, s := range expSegments {
		if u < s.hi {
			return s.a - s.b*(u-s.lo)
		}
	}
	return 0
}

// expQ15Seg holds the Q15-quantised segment table of the integer
// variant, ExpNegLin4Q15, which only the tests run. Breakpoints are in
// Q12 (u scaled by 4096 so the domain [0,4) fits int16), values and
// slopes in Q15.
type expQ15Seg struct {
	loQ12 int32 // breakpoint, Q12
	hiQ12 int32
	aQ15  int32 // value at lo, Q15
	bQ17  int32 // slope per Q12 unit, scaled so (b*(u-lo))>>14 is Q15
}

var expQ15Segments = [4]expQ15Seg{}

func init() {
	for i, s := range expSegments {
		expQ15Segments[i] = expQ15Seg{
			loQ12: int32(s.lo * 4096),
			hiQ12: int32(s.hi * 4096),
			aQ15:  int32(s.a * 32768),
			// u is Q12; the real-valued correction slope*(u-lo) must land
			// in Q15: value = a - slope*du/4096*32768 = a - slope*du*8.
			// Store slope*8 with 11 extra fractional bits for accuracy.
			bQ17: int32(s.b * 8 * 2048),
		}
	}
}
