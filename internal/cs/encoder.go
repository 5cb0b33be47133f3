package cs

import "wbsn/internal/fixedpt"

// Encoder is the on-node compression stage: it projects each n-sample
// window into m measurements with a fixed sensing matrix. The same
// matrix (same seed) must be used by the receiver-side decoder.
type Encoder struct {
	phi Matrix
}

// NewEncoder wraps a sensing matrix as a window encoder.
func NewEncoder(phi Matrix) *Encoder { return &Encoder{phi: phi} }

// Matrix returns the underlying sensing operator.
func (e *Encoder) Matrix() Matrix { return e.phi }

// WindowLen returns the input window length n.
func (e *Encoder) WindowLen() int { return e.phi.Cols() }

// MeasurementLen returns the output measurement count m.
func (e *Encoder) MeasurementLen() int { return e.phi.Rows() }

// Encode compresses one window, returning a fresh measurement slice.
// It panics if len(x) differs from the window length.
func (e *Encoder) Encode(x []float64) []float64 {
	if len(x) != e.phi.Cols() {
		panic("cs: Encode window length mismatch")
	}
	y := make([]float64, e.phi.Rows())
	e.phi.Apply(x, y)
	return y
}

// EncodeLeads compresses one window per lead with the shared sensing
// matrix (the multi-lead setting of ref [6] uses the same Φ on every
// lead so the receiver can exploit the common support).
func (e *Encoder) EncodeLeads(leads [][]float64) [][]float64 {
	out := make([][]float64, len(leads))
	for i, l := range leads {
		out[i] = e.Encode(l)
	}
	return out
}

// EncodeQ15 is the integer-only encoder the node actually runs: for a
// sparse-binary matrix it is d additions per sample followed by one
// shift. Measurements are returned as int32 in the same fixed-point
// scale as the input (Q15 times sqrt(d) kept in integer form to avoid
// the irrational scale on-node; the receiver divides by sqrt(d)).
// It panics if the encoder's matrix is not sparse-binary or the window
// length mismatches.
func (e *Encoder) EncodeQ15(x []fixedpt.Q15) []int32 {
	sb, ok := e.phi.(*SparseBinary)
	if !ok {
		panic("cs: EncodeQ15 requires a sparse-binary sensing matrix")
	}
	if len(x) != sb.n {
		panic("cs: EncodeQ15 window length mismatch")
	}
	y := make([]int32, sb.m)
	for c := 0; c < sb.n; c++ {
		v := int32(x[c])
		if v == 0 {
			continue
		}
		for _, r := range sb.col(c) {
			y[r] += v
		}
	}
	return y
}
