package cs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSparseBinaryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSparseBinary(0, 10, 1, rng); err != ErrDims {
		t.Error("m=0 should fail")
	}
	if _, err := NewSparseBinary(20, 10, 1, rng); err != ErrDims {
		t.Error("m>n should fail")
	}
	if _, err := NewSparseBinary(10, 20, 0, rng); err != ErrDensity {
		t.Error("d=0 should fail")
	}
	if _, err := NewSparseBinary(10, 20, 11, rng); err != ErrDensity {
		t.Error("d>m should fail")
	}
}

func TestSparseBinaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, d := 64, 128, 4
	sb, err := NewSparseBinary(m, n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Rows() != m || sb.Cols() != n || sb.d != d {
		t.Error("dimensions not reported correctly")
	}
	for c := 0; c < n; c++ {
		rows := sb.col(c)
		if len(rows) != d {
			t.Fatalf("column %d has %d nonzeros, want %d", c, len(rows), d)
		}
		seen := map[int32]bool{}
		for _, r := range rows {
			if r < 0 || int(r) >= m {
				t.Fatalf("column %d row index %d out of range", c, r)
			}
			if seen[r] {
				t.Fatalf("column %d has duplicate row %d", c, r)
			}
			seen[r] = true
		}
	}
	if sb.AddsPerWindow() != d*n {
		t.Errorf("AddsPerWindow = %d, want %d", sb.AddsPerWindow(), d*n)
	}
}

func TestSparseBinaryColumnNorm(t *testing.T) {
	// Each column has d entries of 1/sqrt(d): unit column norm.
	rng := rand.New(rand.NewSource(3))
	sb, _ := NewSparseBinary(32, 64, 8, rng)
	x := make([]float64, 64)
	y := make([]float64, 32)
	for c := 0; c < 64; c++ {
		for i := range x {
			x[i] = 0
		}
		x[c] = 1
		sb.Apply(x, y)
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		if math.Abs(norm-1) > 1e-12 {
			t.Fatalf("column %d norm² = %v, want 1", c, norm)
		}
	}
}

// Property: <Φx, r> == <x, Φᵀr> (adjoint consistency), for both matrix
// types.
func TestAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sb, _ := NewSparseBinary(40, 100, 6, rng)
	ga, _ := NewGaussian(40, 100, rng)
	mats := []Matrix{sb, ga}
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		x := make([]float64, 100)
		r := make([]float64, 40)
		for i := range x {
			x[i] = r1.NormFloat64()
		}
		for i := range r {
			r[i] = r1.NormFloat64()
		}
		for _, mat := range mats {
			y := make([]float64, 40)
			z := make([]float64, 100)
			mat.Apply(x, y)
			mat.ApplyT(r, z)
			var lhs, rhs float64
			for i := range y {
				lhs += y[i] * r[i]
			}
			for i := range x {
				rhs += x[i] * z[i]
			}
			if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGaussianValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := NewGaussian(0, 5, rng); err != ErrDims {
		t.Error("m=0 should fail")
	}
	if _, err := NewGaussian(10, 5, rng); err != ErrDims {
		t.Error("m>n should fail")
	}
	g, err := NewGaussian(20, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 20 || g.Cols() != 50 {
		t.Error("Gaussian dims wrong")
	}
}

func TestOperatorNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Sparse binary with unit columns: ||Φ||² is near n/m * d-ish; just
	// sanity-check it's finite, positive, and an upper bound validated by
	// random vectors.
	sb, _ := NewSparseBinary(64, 256, 4, rng)
	lip := OperatorNorm(sb, 40, rng)
	if lip <= 0 || math.IsNaN(lip) {
		t.Fatalf("OperatorNorm = %v", lip)
	}
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 256)
		var nx float64
		for i := range x {
			x[i] = rng.NormFloat64()
			nx += x[i] * x[i]
		}
		y := make([]float64, 64)
		sb.Apply(x, y)
		var ny float64
		for _, v := range y {
			ny += v * v
		}
		if ny > lip*nx*1.01 {
			t.Fatalf("||Φx||²=%v exceeds estimated bound %v·||x||²", ny, lip*nx)
		}
	}
}

func TestMeasurementsForCR(t *testing.T) {
	if m := MeasurementsForCR(512, 50); m != 256 {
		t.Errorf("CR 50 of 512 = %d, want 256", m)
	}
	if m := MeasurementsForCR(512, 0); m != 512 {
		t.Errorf("CR 0 = %d, want 512", m)
	}
	if m := MeasurementsForCR(512, 100); m != 1 {
		t.Errorf("CR 100 = %d, want 1 (clamped)", m)
	}
	if cr := CRForMeasurements(512, 256); cr != 50 {
		t.Errorf("CRForMeasurements = %v", cr)
	}
	// Round trip within rounding error.
	for _, cr := range []float64{10, 33.3, 65.9, 72.7, 90} {
		m := MeasurementsForCR(512, cr)
		back := CRForMeasurements(512, m)
		if math.Abs(back-cr) > 100.0/512 {
			t.Errorf("CR %v -> m=%d -> %v", cr, m, back)
		}
	}
}

// TestApplyCSRMatchesColumnMajor pins the kernel-layout contract: Apply
// reduces the row-major CSR lists and ApplyT gathers the column lists,
// and each must agree bit for bit with the frozen scatter over the
// other layout, because every output adds its entries in the same
// ascending order either way (columns store their rows sorted; rows
// store their columns sorted). The scatters skip zero inputs and the
// reductions do not, so x and r carry +0 and −0 entries throughout and
// outputs are compared by their IEEE-754 bit patterns: a signed zero
// that one layout produced and the other did not would show. Gateway
// digests therefore do not depend on which layout decodes.
func TestApplyCSRMatchesColumnMajor(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, dims := range []struct{ m, n, d int }{
		{175, 512, 4}, {64, 256, 2}, {40, 96, 7},
	} {
		rng := rand.New(rand.NewSource(int64(dims.m)))
		sb, err := NewSparseBinary(dims.m, dims.n, dims.d, rng)
		if err != nil {
			t.Fatal(err)
		}
		// draw returns +0 or −0 a quarter of the time each, so whole
		// columns and rows of zeros occur, and a normal deviate
		// otherwise.
		draw := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return negZero
			default:
				return rng.NormFloat64()
			}
		}
		x := make([]float64, dims.n)
		for i := range x {
			x[i] = draw()
		}
		yCSR := make([]float64, dims.m)
		yCol := make([]float64, dims.m)
		sb.Apply(x, yCSR)
		sb.applyColMajor(x, yCol)
		for i := range yCSR {
			if math.Float64bits(yCSR[i]) != math.Float64bits(yCol[i]) {
				t.Fatalf("m=%d: Apply CSR y[%d]=%g, column-major scatter %g", dims.m, i, yCSR[i], yCol[i])
			}
		}
		r := make([]float64, dims.m)
		for i := range r {
			r[i] = draw()
		}
		zCol := make([]float64, dims.n)
		zCSR := make([]float64, dims.n)
		sb.ApplyT(r, zCol)
		sb.applyTCSR(r, zCSR)
		for c := range zCol {
			if math.Float64bits(zCol[c]) != math.Float64bits(zCSR[c]) {
				t.Fatalf("m=%d: ApplyT column gather z[%d]=%g, CSR scatter %g", dims.m, c, zCol[c], zCSR[c])
			}
		}
	}
}

// applyColMajor is the pre-CSR column-major y = Φx kernel, frozen here
// as the bit-identity reference for TestApplyCSRMatchesColumnMajor.
func (s *SparseBinary) applyColMajor(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	d := s.d
	for c, v := range x[:s.n] {
		if v == 0 {
			continue
		}
		for _, r := range s.idx[c*d : (c+1)*d] {
			y[r] += v
		}
	}
	for i := range y {
		y[i] *= s.scale
	}
}

// applyTCSR is the row-major CSR z = Φᵀr scatter that ApplyT ran
// before the column gather: each nonzero residual element is loaded
// once per row and added into its row's column list. Frozen here as
// the bit-identity reference for TestApplyCSRMatchesColumnMajor.
func (s *SparseBinary) applyTCSR(r, z []float64) {
	for c := range z[:s.n] {
		z[c] = 0
	}
	rowPtr, rowCols := s.rowPtr, s.rowCols
	for i := 0; i < s.m; i++ {
		ri := r[i]
		if ri == 0 {
			continue
		}
		for _, c := range rowCols[rowPtr[i]:rowPtr[i+1]] {
			z[c] += ri
		}
	}
	scale := s.scale
	for c := range z[:s.n] {
		z[c] *= scale
	}
}

// TestSparseBinaryCSRStructure checks the companion index is a
// permutation-consistent view of the column list: every (row, col)
// entry appears in both, rows partition the nonzeros, and per-row
// column lists are sorted.
func TestSparseBinaryCSRStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, n, d := 48, 128, 5
	sb, err := NewSparseBinary(m, n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(sb.rowPtr[m]), n*d; got != want {
		t.Fatalf("rowPtr[m] = %d, want %d nonzeros", got, want)
	}
	count := 0
	for i := 0; i < m; i++ {
		cols := sb.rowCols[sb.rowPtr[i]:sb.rowPtr[i+1]]
		for j, c := range cols {
			if j > 0 && cols[j-1] >= c {
				t.Fatalf("row %d columns not strictly ascending", i)
			}
			found := false
			for _, r := range sb.col(int(c)) {
				if int(r) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("CSR entry (%d,%d) missing from column list", i, c)
			}
			count++
		}
	}
	if count != n*d {
		t.Fatalf("CSR holds %d entries, want %d", count, n*d)
	}
}

func TestSparseBinaryDeterministic(t *testing.T) {
	a, _ := NewSparseBinary(32, 64, 4, rand.New(rand.NewSource(9)))
	b, _ := NewSparseBinary(32, 64, 4, rand.New(rand.NewSource(9)))
	for i := range a.idx {
		if a.idx[i] != b.idx[i] {
			t.Fatal("same seed gave different matrices")
		}
	}
}

// Gaussian is a dense i.i.d. N(0, 1/m) sensing matrix, the classical CS
// baseline against which the sparse-binary design is ablated
// (BenchmarkAblationPhiDensity). No program senses with it.
type Gaussian struct {
	m, n int
	a    []float64 // row-major m×n
}

// NewGaussian builds a dense Gaussian sensing matrix.
func NewGaussian(m, n int, rng *rand.Rand) (*Gaussian, error) {
	if m <= 0 || n <= 0 || m > n {
		return nil, ErrDims
	}
	g := &Gaussian{m: m, n: n, a: make([]float64, m*n)}
	sd := 1 / math.Sqrt(float64(m))
	for i := range g.a {
		g.a[i] = sd * rng.NormFloat64()
	}
	return g, nil
}

// Rows returns the number of measurements m.
func (g *Gaussian) Rows() int { return g.m }

// Cols returns the window length n.
func (g *Gaussian) Cols() int { return g.n }

// Apply computes y = Φx.
func (g *Gaussian) Apply(x, y []float64) {
	for i := 0; i < g.m; i++ {
		row := g.a[i*g.n : (i+1)*g.n]
		acc := 0.0
		for j, v := range row {
			acc += v * x[j]
		}
		y[i] = acc
	}
}

// ApplyT computes z = Φᵀr.
func (g *Gaussian) ApplyT(r, z []float64) {
	for j := range z {
		z[j] = 0
	}
	for i := 0; i < g.m; i++ {
		ri := r[i]
		if ri == 0 {
			continue
		}
		row := g.a[i*g.n : (i+1)*g.n]
		for j, v := range row {
			z[j] += v * ri
		}
	}
}
