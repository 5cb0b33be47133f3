package morpho

import (
	"math"
	"testing"
)

func gaussianBump(n, centre int, width, amp float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		d := float64(i - centre)
		x[i] = amp * math.Exp(-d*d/(2*width*width))
	}
	return x
}

func TestMMDTransformRejectsBadScale(t *testing.T) {
	if _, err := MMDTransform([]float64{1, 2}, 0); err != ErrBadSE {
		t.Error("scale 0 should fail")
	}
}

func TestMMDPeakGivesMinimum(t *testing.T) {
	// Ref [13]: minima in the transform indicate peaks in the original.
	n := 256
	x := gaussianBump(n, 128, 4, 1)
	m, err := MMDTransform(x, 6)
	if err != nil {
		t.Fatal(err)
	}
	minIdx := 0
	for i := range m {
		if m[i] < m[minIdx] {
			minIdx = i
		}
	}
	if d := minIdx - 128; d < -2 || d > 2 {
		t.Errorf("transform minimum at %d, peak at 128", minIdx)
	}
	if m[minIdx] >= 0 {
		t.Errorf("transform at peak should be negative, got %v", m[minIdx])
	}
}

func TestMMDOnsetOffsetGiveMaxima(t *testing.T) {
	// Maxima delimit the start and end of each wave.
	n := 256
	x := gaussianBump(n, 128, 5, 1)
	m, err := MMDTransform(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Find the two largest local maxima.
	bestL, bestR := -1, -1
	for i := 1; i < 128; i++ {
		if m[i] > m[i-1] && m[i] >= m[i+1] && (bestL == -1 || m[i] > m[bestL]) {
			bestL = i
		}
	}
	for i := 129; i < n-1; i++ {
		if m[i] > m[i-1] && m[i] >= m[i+1] && (bestR == -1 || m[i] > m[bestR]) {
			bestR = i
		}
	}
	if bestL == -1 || bestR == -1 {
		t.Fatal("no onset/offset maxima found")
	}
	// They must straddle the wave roughly +/- 2-3 widths from centre.
	if bestL > 125 || bestL < 100 {
		t.Errorf("onset maximum at %d, want in [100,125]", bestL)
	}
	if bestR < 131 || bestR > 156 {
		t.Errorf("offset maximum at %d, want in [131,156]", bestR)
	}
}

func TestMMDNegativePeakGivesPositiveResponse(t *testing.T) {
	// A negative wave (e.g. Q/S) flips the transform sign at the trough:
	// -2*x[i] dominates and is positive there.
	n := 256
	x := gaussianBump(n, 128, 4, -1)
	m, err := MMDTransform(x, 6)
	if err != nil {
		t.Fatal(err)
	}
	maxIdx := 0
	for i := range m {
		if m[i] > m[maxIdx] {
			maxIdx = i
		}
	}
	if d := maxIdx - 128; d < -2 || d > 2 {
		t.Errorf("transform maximum at %d for negative peak at 128", maxIdx)
	}
}

func TestMMDMultiscale(t *testing.T) {
	x := gaussianBump(300, 150, 3, 1)
	scales := []int{2, 4, 8}
	out, err := MMDMultiscale(x, scales)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d scales", len(out))
	}
	for i, m := range out {
		if len(m) != len(x) {
			t.Errorf("scale %d output length %d", scales[i], len(m))
		}
	}
	if _, err := MMDMultiscale(x, []int{2, 0}); err == nil {
		t.Error("invalid scale inside list should fail")
	}
}

func TestMMDScaleSelectivity(t *testing.T) {
	// A narrow spike responds more strongly (relative to amplitude) at
	// small scales than a wide wave does; this is how QRS is separated
	// from P/T.
	n := 512
	narrow := gaussianBump(n, 128, 2, 1)
	wide := gaussianBump(n, 384, 20, 1)
	x := make([]float64, n)
	for i := range x {
		x[i] = narrow[i] + wide[i]
	}
	m, err := MMDTransform(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	respNarrow := math.Abs(m[128])
	respWide := math.Abs(m[384])
	if respNarrow < 4*respWide {
		t.Errorf("small-scale response narrow=%v wide=%v; expected strong selectivity", respNarrow, respWide)
	}
}

func TestMMDStream(t *testing.T) {
	s := 4
	ms, err := NewMMDStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Latency() != 2*s {
		t.Errorf("latency = %d, want %d", ms.Latency(), 2*s)
	}
	x := gaussianBump(128, 64, 3, 1)
	var outs []float64
	var firstIdx int = -1
	for i, v := range x {
		y, ok := ms.Step(v)
		if ok {
			if firstIdx == -1 {
				firstIdx = i
			}
			outs = append(outs, y)
		}
	}
	if firstIdx != 2*s {
		t.Errorf("first output at input index %d, want %d", firstIdx, 2*s)
	}
	// Minimum of the streamed transform aligns with the peak (output i
	// corresponds to input i - s).
	minIdx := 0
	for i := range outs {
		if outs[i] < outs[minIdx] {
			minIdx = i
		}
	}
	centreInput := minIdx + firstIdx - s
	if d := centreInput - 64; d < -2 || d > 2 {
		t.Errorf("stream minimum maps to input %d, peak at 64", centreInput)
	}
	ms.Reset()
	if _, ok := ms.Step(1); ok {
		t.Error("Reset did not clear fill state")
	}
	if _, err := NewMMDStream(0); err == nil {
		t.Error("NewMMDStream(0) should fail")
	}
}

// The multiscale and streaming MMD forms below are read only by the
// tests; the morphological delineator calls MMDTransform.

// MMDMultiscale computes the transform at several scales and returns one
// output per scale, in the given order. Delineators match extrema across
// scales to separate QRS (sharp, strong at small scales) from P/T waves
// (smooth, strong at larger scales).
func MMDMultiscale(x []float64, scales []int) ([][]float64, error) {
	out := make([][]float64, len(scales))
	for i, s := range scales {
		m, err := MMDTransform(x, s)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// windowStat is the embedded streaming implementation hinted at in
// Section IV.A: for a flat SE only the window centre value, maximum and
// minimum are tracked while sliding. MMDStream exposes it as an online
// transformer that emits one output sample per input sample after a
// latency of 2s samples.
type MMDStream struct {
	s     int
	buf   []float64 // circular window of length 2s+1
	count int
	pos   int
}

// NewMMDStream creates a streaming morphological-derivative transformer
// at scale s.
func NewMMDStream(s int) (*MMDStream, error) {
	if s < 1 {
		return nil, ErrBadSE
	}
	return &MMDStream{s: s, buf: make([]float64, 2*s+1)}, nil
}

// Latency returns the number of samples before the first valid output.
func (m *MMDStream) Latency() int { return 2 * m.s }

// Step pushes one sample; once the window is full it returns the
// transform value for the window centre and ok=true.
func (m *MMDStream) Step(x float64) (y float64, ok bool) {
	m.buf[m.pos] = x
	m.pos++
	if m.pos == len(m.buf) {
		m.pos = 0
	}
	if m.count < len(m.buf) {
		m.count++
		if m.count < len(m.buf) {
			return 0, false
		}
	}
	// Window is full: the transform needs only the window minimum,
	// maximum and centre value — exactly the Section IV.A optimisation.
	k := len(m.buf)
	minV, maxV := m.buf[0], m.buf[0]
	for _, v := range m.buf[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	centreIdx := m.pos - 1 - m.s
	for centreIdx < 0 {
		centreIdx += k
	}
	centre := m.buf[centreIdx]
	return (maxV + minV - 2*centre) / float64(m.s), true
}

// Reset clears the stream state.
func (m *MMDStream) Reset() {
	m.count, m.pos = 0, 0
	for i := range m.buf {
		m.buf[i] = 0
	}
}
