// Package cs implements the compressed-sensing chain of Section III.A:
// sparse-binary sensing matrices (ref [16]: "few non-zero elements in the
// sensing matrix suffice to achieve close-to-optimal results ... while
// minimizing the run-time workload"), the on-node encoder, and the two
// reconstruction solvers evaluated in Figure 5 — independent single-lead
// ℓ1 recovery (refs [4][16]) and joint multi-lead group-sparse (ℓ2,1)
// recovery that exploits the shared sparsity structure across leads
// (ref [6]).
//
// Conventions: signals are windows of n samples; the encoder computes
// y = Φx with Φ an m×n matrix, m < n. The compression ratio follows the
// paper's definition CR = 100·(n−m)/n, so larger CR means fewer
// measurements. Reconstruction solves a basis-pursuit-denoising problem
// over wavelet coefficients θ (x = Ψθ with Ψ an orthonormal Daubechies
// synthesis operator from internal/wavelet).
package cs

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Errors returned by matrix constructors and the encoder.
var (
	ErrDims    = errors.New("cs: invalid matrix dimensions")
	ErrDensity = errors.New("cs: nonzeros per column must be in [1, m]")
)

// Matrix is a sensing operator Φ: it can apply itself and its transpose.
type Matrix interface {
	// Rows returns m, the number of measurements.
	Rows() int
	// Cols returns n, the signal window length.
	Cols() int
	// Apply computes y = Φx, writing into y (len m). x has len n.
	Apply(x, y []float64)
	// ApplyT computes z = Φᵀr, writing into z (len n). r has len m.
	ApplyT(r, z []float64)
}

// SparseBinary is the sensing matrix of ref [16]: each column holds
// exactly d entries of value 1/√d at uniformly-chosen rows. The encoder
// then needs only d additions per input sample and no multiplications —
// the property that makes CS encoding nearly free on the node (Figure 6's
// tiny "Comp." share).
type SparseBinary struct {
	m, n int
	d    int
	// idx is the flattened column index list: idx[c*d : (c+1)*d] holds
	// the d row indices of column c, sorted ascending. One contiguous
	// allocation instead of n small slices keeps the kernels walking a
	// single cache-friendly array. ApplyT gathers each column's rows
	// from it into a register and stores z[c] once.
	idx []int32
	// rowPtr/rowCols are the row-major CSR companion of idx: row i's
	// column indices are rowCols[rowPtr[i]:rowPtr[i+1]], ascending.
	// Apply reduces each row's contiguous entry list into a register
	// and stores y sequentially (no output zeroing, no read-modify-
	// write). Each output of either kernel adds its entries in
	// ascending order, so both agree bit for bit with the scatters over
	// the other layout (TestApplyCSRMatchesColumnMajor).
	rowPtr  []int32
	rowCols []int32
	scale   float64
}

// Density is the column density of the node's sparse-binary sensing
// matrix: the nonzeros per column of Φ, clamped to the measurement
// count. The node, the gateway and the Figure 5 sweep draw Φ at it.
const Density = 4

// NewSparseBinary builds an m×n sparse-binary sensing matrix with d
// non-zeros per column, drawn from rng (deterministic per seed).
func NewSparseBinary(m, n, d int, rng *rand.Rand) (*SparseBinary, error) {
	if m <= 0 || n <= 0 || m > n {
		return nil, ErrDims
	}
	if d < 1 || d > m {
		return nil, ErrDensity
	}
	sb := &SparseBinary{m: m, n: n, d: d, idx: make([]int32, n*d), scale: 1 / math.Sqrt(float64(d))}
	perm := make([]int, m)
	for c := 0; c < n; c++ {
		// Sample d distinct rows by partial Fisher-Yates.
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < d; i++ {
			j := i + rng.Intn(m-i)
			perm[i], perm[j] = perm[j], perm[i]
			sb.idx[c*d+i] = int32(perm[i])
		}
		// Ascending row order per column: the canonical accumulation
		// order shared by the column-major and CSR traversals.
		col := sb.idx[c*d : (c+1)*d]
		sort.Slice(col, func(a, b int) bool { return col[a] < col[b] })
	}
	sb.buildCSR()
	return sb, nil
}

// buildCSR derives the row-major companion index from the column list
// with a counting pass (no sort): rowPtr[i] is the offset of row i's
// column list in rowCols. Because the column loop visits c ascending,
// each row's columns land in rowCols already sorted.
func (s *SparseBinary) buildCSR() {
	s.rowPtr = make([]int32, s.m+1)
	s.rowCols = make([]int32, len(s.idx))
	for _, r := range s.idx {
		s.rowPtr[r+1]++
	}
	for i := 0; i < s.m; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	next := make([]int32, s.m)
	copy(next, s.rowPtr[:s.m])
	d := s.d
	for c := 0; c < s.n; c++ {
		for _, r := range s.idx[c*d : (c+1)*d] {
			s.rowCols[next[r]] = int32(c)
			next[r]++
		}
	}
}

// col returns the row indices of column c.
func (s *SparseBinary) col(c int) []int32 { return s.idx[c*s.d : (c+1)*s.d] }

// Rows returns the number of measurements m.
func (s *SparseBinary) Rows() int { return s.m }

// Cols returns the window length n.
func (s *SparseBinary) Cols() int { return s.n }

// Apply computes y = Φx by walking the CSR companion: each measurement
// reduces its contiguous column list into a register and stores once —
// no output zeroing and no scattered read-modify-write. Bit-identical
// to the column-major traversal (each y[i] sums its columns ascending
// either way).
func (s *SparseBinary) Apply(x, y []float64) {
	rowPtr, rowCols := s.rowPtr, s.rowCols
	scale := s.scale
	for i := range y[:s.m] {
		acc := 0.0
		for _, c := range rowCols[rowPtr[i]:rowPtr[i+1]] {
			acc += x[c]
		}
		y[i] = acc * scale
	}
}

// ApplyT computes z = Φᵀr by gathering each column's d residual
// entries in ascending row order into a register and storing z[c]
// once. That is the order in which the row-major scatter adds them, so
// the two agree bit for bit; its skip of zero residual rows changes no
// bit either, because an accumulator that starts at +0 never becomes
// −0.
func (s *SparseBinary) ApplyT(r, z []float64) {
	idx, d := s.idx, s.d
	scale := s.scale
	for c := range z[:s.n] {
		acc := 0.0
		for _, i := range idx[c*d : c*d+d] {
			acc += r[i]
		}
		z[c] = acc * scale
	}
}

// AddsPerWindow returns the number of integer additions the on-node
// encoder performs per window: d adds per input sample. This count feeds
// the compression-energy model of Figure 6.
func (s *SparseBinary) AddsPerWindow() int { return s.d * s.n }

// OperatorNorm estimates ||Φ||₂² (the largest squared singular value) by
// power iteration; it upper-bounds the Lipschitz constant needed by the
// FISTA solvers. iters of 30 is ample for these well-conditioned random
// matrices.
func OperatorNorm(phi Matrix, iters int, rng *rand.Rand) float64 {
	n := phi.Cols()
	m := phi.Rows()
	x := make([]float64, n)
	y := make([]float64, m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	norm := 0.0
	for it := 0; it < iters; it++ {
		phi.Apply(x, y)
		phi.ApplyT(y, x)
		norm = 0
		for _, v := range x {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		inv := 1 / norm
		for i := range x {
			x[i] *= inv
		}
	}
	return norm // ||ΦᵀΦ|| = ||Φ||²
}

// MeasurementsForCR returns the measurement count m for a window of n
// samples at compression ratio cr per the paper's definition
// CR = 100(n−m)/n, clamped to [1, n].
func MeasurementsForCR(n int, cr float64) int {
	m := int(math.Round(float64(n) * (1 - cr/100)))
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	return m
}

// CRForMeasurements returns the compression ratio achieved by m
// measurements of an n-sample window.
func CRForMeasurements(n, m int) float64 {
	return 100 * float64(n-m) / float64(n)
}
