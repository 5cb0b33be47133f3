package classify

import (
	"math/rand"
	"testing"

	"wbsn/internal/fixedpt"
)

// ProjectQ15 is the integer form of Project (Section IV.A): additions
// and subtractions only, one wide accumulator per output, scaled at the
// end. No program runs it; TestProjectQ15MatchesFloat checks it against
// Project.
// The output stays in a Q15-compatible range provided the input beats
// are amplitude-normalised (the feature extractor guarantees it).
func (m *RPMatrix) ProjectQ15(x []fixedpt.Q15) ([]fixedpt.Q15, error) {
	if len(x) != m.n {
		return nil, ErrBadInput
	}
	z := make([]fixedpt.Q15, m.k)
	scaleQ := int64(m.scale * 32768)
	for r := 0; r < m.k; r++ {
		var acc int64
		base := r * m.n
		for c := 0; c < m.n; c++ {
			i := base + c
			code := (m.bits[i/32] >> uint((i%32)*2)) & 3
			switch code {
			case 1:
				acc += int64(x[c])
			case 2:
				acc -= int64(x[c])
			}
		}
		v := (acc * scaleQ) >> 15
		if v > 32767 {
			v = 32767
		}
		if v < -32768 {
			v = -32768
		}
		z[r] = fixedpt.Q15(v)
	}
	return z, nil
}

// BenchmarkAblationRPPacking reports the memory of the 2-bit packed
// random-projection matrix against float64 storage (Section IV.A) and
// times the projection.
func BenchmarkAblationRPPacking(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	w := DefaultBeatWindow(256)
	rp, err := NewRPMatrix(16, w.Len(), rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, w.Len())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.Project(x); err != nil {
			b.Fatal(err)
		}
	}
	// Reported after the loop: ResetTimer drops metrics reported before it.
	b.ReportMetric(float64(len(rp.bits)*8), "bytes-packed")
	b.ReportMetric(float64(16*w.Len()*8), "bytes-float64")
}
