// Package wavelet implements the two wavelet machines the paper relies
// on:
//
//   - an orthogonal discrete wavelet transform (DWT) with periodic
//     boundaries, used as the sparsity basis for compressed sensing
//     (Section III.A, refs [4][16]): ECG is sparse in Daubechies wavelets,
//     and the CS solvers in internal/cs minimise the ℓ1 norm of these
//     coefficients;
//
//   - the undecimated à-trous filter bank with the quadratic-spline
//     derivative wavelet used by the embedded delineator (Section III.C,
//     ref [12]): wave boundaries appear as modulus-maxima pairs across
//     scales 2¹..2⁵, and the filter coefficients are dyadic rationals so
//     the whole transform runs with integer shifts and adds on the node
//     (Section IV.A).
//
// The DWT's per-level kernels are the inner loops of every FISTA
// iteration at the gateway, and they are fitted to the one basis that
// runs there, the 8-tap Daubechies-8. Analysis computes two outputs per
// step from one ten-sample window that feeds both filters, so each
// sample is loaded once per step, and only the last three outputs,
// whose taps wrap past the end of the signal, index modulo the length.
// Synthesis is a gather over four outputs per step: its four tap rows
// meet the five approximation and five detail values those outputs
// read, and each output sums its four taps in the ascending order the
// textbook scatter x[2i+k] += h[k]·a[i] + g[k]·d[i] applies them. Both
// kernels keep the floating-point operation sequence of the
// one-output-at-a-time loops bit for bit (kernel_ref_test.go pins this
// against frozen copies of those loops).
package wavelet

import "errors"

// Errors returned by transform constructors and calls.
var (
	ErrLength = errors.New("wavelet: signal length must be divisible by 2^levels and cover the filter at every level")
	ErrLevels = errors.New("wavelet: invalid number of decomposition levels")
)

// Orthogonal holds an orthogonal 8-tap wavelet's analysis low-pass
// filter and the high-pass its quadrature-mirror relation derives once
// at construction, so the per-level transform kernels never allocate.
// The synthesis filters are the same taps read in reverse.
type Orthogonal struct {
	h  [8]float64 // analysis low-pass
	gf [8]float64 // analysis high-pass (alternating flip of h)
}

// newOrthogonal derives the quadrature-mirror high-pass at construction,
// g[k] = (-1)^k h[7-k].
func newOrthogonal(h [8]float64) *Orthogonal {
	return &Orthogonal{h: h, gf: [8]float64{h[7], -h[6], h[5], -h[4], h[3], -h[2], h[1], -h[0]}}
}

// Daubechies8 returns the 8-tap Daubechies wavelet (db4 in MATLAB
// nomenclature, 4 vanishing moments) — the standard ECG sparsity basis in
// the CS literature the paper builds on.
func Daubechies8() *Orthogonal {
	return newOrthogonal([8]float64{
		0.23037781330885523, 0.71484657055254153,
		0.63088076792959036, -0.02798376941698385,
		-0.18703481171888114, 0.03084138183598697,
		0.03288301166698295, -0.01059740178499728,
	})
}

// CheckLength reports whether an n-sample signal admits a levels-deep
// transform: ErrLevels for levels < 1, ErrLength unless n is divisible
// by 2^levels and every level's input holds at least the filter's taps.
// A shorter level would wrap a tap window around the signal more than
// once, which the kernels do not do.
func (w *Orthogonal) CheckLength(n, levels int) error {
	if levels < 1 {
		return ErrLevels
	}
	// The deepest level's input is n>>(levels-1); testing it first also
	// keeps the modulus below from a zero divisor at absurd depths.
	if n>>uint(levels-1) < len(w.h) || n%(1<<uint(levels)) != 0 {
		return ErrLength
	}
	return nil
}

// Scratch holds the ping-pong work buffers the Into transform variants
// use instead of allocating. A zero Scratch is ready to use; buffers grow
// on demand and are reused across calls. A Scratch must not be shared
// between concurrent transforms.
type Scratch struct {
	a, b []float64
}

// buffers returns two independent length-n work slices, growing the
// backing arrays when needed.
func (s *Scratch) buffers(n int) ([]float64, []float64) {
	if cap(s.a) < n {
		s.a = make([]float64, n)
	}
	if cap(s.b) < n {
		s.b = make([]float64, n)
	}
	return s.a[:n], s.b[:n]
}

// ForwardInto computes a 'levels'-deep periodic DWT of x into out
// (len(x)), laid out as [a_L | d_L | d_{L-1} | ... | d_1], the standard
// pyramid order. len(x) must pass CheckLength. All intermediates come
// from s — allocation-free in steady state.
func (w *Orthogonal) ForwardInto(x []float64, levels int, out []float64, s *Scratch) error {
	n := len(x)
	if err := w.CheckLength(n, levels); err != nil {
		return err
	}
	if len(out) != n {
		return ErrLength
	}
	cur, next := s.buffers(n)
	copy(cur, x)
	pos := n
	curLen := n
	for lev := 0; lev < levels; lev++ {
		half := curLen / 2
		w.analyzeOne(cur[:curLen], next[:half], out[pos-half:pos])
		pos -= half
		curLen = half
		cur, next = next, cur
	}
	copy(out[:curLen], cur[:curLen])
	return nil
}

// InverseInto reconstructs into out (len(c)) the signal whose
// pyramid-ordered coefficients ForwardInto produced with the same number
// of levels, drawing all intermediates from s — allocation-free in
// steady state.
func (w *Orthogonal) InverseInto(c []float64, levels int, out []float64, s *Scratch) error {
	n := len(c)
	if err := w.CheckLength(n, levels); err != nil {
		return err
	}
	if len(out) != n {
		return ErrLength
	}
	alen := n >> uint(levels)
	cur, next := s.buffers(n)
	copy(cur[:alen], c[:alen])
	pos := alen
	curLen := alen
	for lev := levels; lev >= 1; lev-- {
		d := c[pos : pos+curLen]
		dst := next[:2*curLen]
		if lev == 1 {
			dst = out
		}
		w.synthesizeOne(cur[:curLen], d, dst)
		pos += curLen
		curLen *= 2
		cur, next = next, cur
	}
	return nil
}

// analyzeOne performs one decimating analysis step with periodic
// boundaries, writing approximation into a and detail into d (each
// len(x)/2). len(x) must be even and at least 8. Output i sums
// h[k]·x[2i+k] (and g[k]·x[2i+k]) over ascending k. While the taps stay
// inside x, outputs i and i+1 run together from the ten samples
// x[2i : 2i+10], each loaded once for both filters; the last three
// outputs wrap.
func (w *Orthogonal) analyzeOne(x, a, d []float64) {
	n := len(x)
	h, g := &w.h, &w.gf
	half := n / 2
	a, d = a[:half], d[:half]
	// Outputs below half-3 read x[2i : 2i+8] without wrapping; a pair
	// runs while its second output is one of them. Each sum starts
	// from +0, as the one-output loop's accumulator does: +0 + (−0) is
	// +0, so starting from the first product would turn a sum of
	// signed zeros negative.
	i := 0
	for ; i < half-4; i += 2 {
		v := x[2*i : 2*i+10]
		x0, x1, x2, x3, x4 := v[0], v[1], v[2], v[3], v[4]
		x5, x6, x7, x8, x9 := v[5], v[6], v[7], v[8], v[9]
		ap, dp := a[i:i+2], d[i:i+2]
		ap[0] = 0 + h[0]*x0 + h[1]*x1 + h[2]*x2 + h[3]*x3 + h[4]*x4 + h[5]*x5 + h[6]*x6 + h[7]*x7
		dp[0] = 0 + g[0]*x0 + g[1]*x1 + g[2]*x2 + g[3]*x3 + g[4]*x4 + g[5]*x5 + g[6]*x6 + g[7]*x7
		ap[1] = 0 + h[0]*x2 + h[1]*x3 + h[2]*x4 + h[3]*x5 + h[4]*x6 + h[5]*x7 + h[6]*x8 + h[7]*x9
		dp[1] = 0 + g[0]*x2 + g[1]*x3 + g[2]*x4 + g[3]*x5 + g[4]*x6 + g[5]*x7 + g[6]*x8 + g[7]*x9
	}
	for ; i < half; i++ {
		var sa, sd float64
		for k, hk := range h {
			j := 2*i + k
			if j >= n {
				j -= n
			}
			sa += hk * x[j]
			sd += g[k] * x[j]
		}
		a[i] = sa
		d[i] = sd
	}
}

// synthesizeOne inverts one analysis step (periodic boundaries): x[j]
// sums h[k]·a[i] + g[k]·d[i] over every (i, k) with 2i+k ≡ j (mod
// len(x)), in ascending i. Outputs from 6 on take no wrapped taps and
// run four per step; the six head outputs and the tail go through
// synthesizeAt. len(x) must be even and at least 8.
func (w *Orthogonal) synthesizeOne(a, d, x []float64) {
	n := len(x)
	h, g := &w.h, &w.gf
	j := 6
	for ; j+4 <= n; j += 4 {
		// Outputs j..j+3 are 2m, 2m+1, 2m+2, 2m+3: the first pair reads
		// a[m-3 : m+1] (taps 6, 4, 2, 0 for the even output, 7, 5, 3, 1
		// for the odd one), the second the same window one step on, so
		// the five loaded values of a and of d serve both pairs.
		// Each output adds its four taps to +0, as the analysis does.
		m := j / 2
		av, dv := a[m-3:][:5], d[m-3:][:5]
		a0, a1, a2, a3, a4 := av[0], av[1], av[2], av[3], av[4]
		d0, d1, d2, d3, d4 := dv[0], dv[1], dv[2], dv[3], dv[4]
		xs := x[j:][:4]
		xs[0] = 0 + (h[6]*a0 + g[6]*d0) + (h[4]*a1 + g[4]*d1) + (h[2]*a2 + g[2]*d2) + (h[0]*a3 + g[0]*d3)
		xs[1] = 0 + (h[7]*a0 + g[7]*d0) + (h[5]*a1 + g[5]*d1) + (h[3]*a2 + g[3]*d2) + (h[1]*a3 + g[1]*d3)
		xs[2] = 0 + (h[6]*a1 + g[6]*d1) + (h[4]*a2 + g[4]*d2) + (h[2]*a3 + g[2]*d3) + (h[0]*a4 + g[0]*d4)
		xs[3] = 0 + (h[7]*a1 + g[7]*d1) + (h[5]*a2 + g[5]*d2) + (h[3]*a3 + g[3]*d3) + (h[1]*a4 + g[1]*d4)
	}
	for ; j < n; j++ {
		x[j] = w.synthesizeAt(a, d, n, j)
	}
	for j := 0; j < 6; j++ {
		x[j] = w.synthesizeAt(a, d, n, j)
	}
}

// synthesizeAt returns synthesis output j of an n-sample level tap by
// tap: first the taps inside the signal (i = (j-k)/2), then those
// wrapped from its end (i = (j+n-k)/2), each in ascending i. With n at
// least the filter length every wrapped i exceeds every unwrapped one,
// so this is the scatter's order.
func (w *Orthogonal) synthesizeAt(a, d []float64, n, j int) float64 {
	h, g := &w.h, &w.gf
	top := 6 + j&1 // the largest tap of j's parity
	acc := 0.0
	for k := min(j, top); k >= 0; k -= 2 {
		i := (j - k) / 2
		acc += h[k]*a[i] + g[k]*d[i]
	}
	for k := top; k > j; k -= 2 {
		i := (j + n - k) / 2
		acc += h[k]*a[i] + g[k]*d[i]
	}
	return acc
}
