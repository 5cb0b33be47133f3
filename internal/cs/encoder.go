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

// FullScaleMV is the node's ADC full scale: a sample of x mV enters
// the integer encoder as the Q15 value x/FullScaleMV, saturating at
// ±FullScaleMV.
const FullScaleMV = 4

// EncodeLeadsQ15 is the node's CS stage in Encode's units: every lead
// is digitised to Q15 at FullScaleMV and projected by EncodeQ15, and the
// integer sums are scaled by FullScaleMV/2^15/√d (2^-14 at d = 4, an
// exact power of two). It returns fresh slices and panics as EncodeQ15
// does.
func (e *Encoder) EncodeLeadsQ15(leads [][]float64) [][]float64 {
	sb := e.sparse()
	xq := make([]fixedpt.Q15, sb.n)
	yq := make([]int32, sb.m)
	unit := FullScaleMV / 32768.0 * sb.scale
	out := make([][]float64, len(leads))
	for li, x := range leads {
		for i, v := range x {
			xq[i] = fixedpt.FromFloat(v / FullScaleMV)
		}
		e.EncodeQ15(xq, yq)
		y := make([]float64, sb.m)
		for i, s := range yq {
			y[i] = float64(s) * unit
		}
		out[li] = y
	}
	return out
}

// EncodeQ15 is the integer-only encoder the node runs: for a
// sparse-binary matrix it is d additions per sample and no
// multiplication. It writes the m column sums of the Q15 window x into
// y, unscaled (the 1/√d of Φ stays with the receiver). It panics if the
// encoder's matrix is not sparse-binary or a length mismatches.
func (e *Encoder) EncodeQ15(x []fixedpt.Q15, y []int32) {
	sb := e.sparse()
	if len(x) != sb.n || len(y) != sb.m {
		panic("cs: EncodeQ15 length mismatch")
	}
	clear(y)
	for c, v := range x {
		if v == 0 {
			continue
		}
		for _, r := range sb.col(c) {
			y[r] += int32(v)
		}
	}
}

// sparse returns the encoder's matrix as the sparse-binary operator the
// integer encoder needs, panicking for any other.
func (e *Encoder) sparse() *SparseBinary {
	sb, ok := e.phi.(*SparseBinary)
	if !ok {
		panic("cs: EncodeQ15 requires a sparse-binary sensing matrix")
	}
	return sb
}
