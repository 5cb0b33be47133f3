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
// iteration at the gateway. Analysis computes four outputs per step
// over plain subslices, so each tap loop keeps four independent
// accumulator chains, and only the last few outputs, whose taps wrap
// past the end of the signal, index modulo the length. Synthesis is a
// gather: each output sums its L/2 taps in the ascending order the
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

// Orthogonal holds an orthogonal wavelet's analysis low-pass filter; the
// remaining three filters follow by quadrature-mirror relations. The
// high-pass mirror and the synthesis gather taps are derived once at
// construction so the per-level transform kernels never allocate.
type Orthogonal struct {
	h  []float64 // analysis low-pass
	gf []float64 // analysis high-pass (alternating-flip of h)
	// syn holds the synthesis taps in gather order, one row per step t
	// of the L/2 taps an output sums: {h[L-2-2t], h[L-1-2t], g[L-2-2t],
	// g[L-1-2t]}, so output 2m+p adds syn[t][p]·a[m-L/2+1+t] +
	// syn[t][2+p]·d[m-L/2+1+t] over ascending t.
	syn [][4]float64
}

// newOrthogonal derives the quadrature-mirror high-pass at construction,
// g[k] = (-1)^k h[L-1-k], and the gather-ordered synthesis taps.
func newOrthogonal(h []float64) *Orthogonal {
	L := len(h)
	g := make([]float64, L)
	for k := 0; k < L; k++ {
		if k%2 == 0 {
			g[k] = h[L-1-k]
		} else {
			g[k] = -h[L-1-k]
		}
	}
	var syn [][4]float64
	for k := L - 2; k >= 0; k -= 2 {
		syn = append(syn, [4]float64{h[k], h[k+1], g[k], g[k+1]})
	}
	return &Orthogonal{h: h, gf: g, syn: syn}
}

// Daubechies8 returns the 8-tap Daubechies wavelet (db4 in MATLAB
// nomenclature, 4 vanishing moments) — the standard ECG sparsity basis in
// the CS literature the paper builds on.
func Daubechies8() *Orthogonal {
	return newOrthogonal([]float64{
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

// analyzeOne performs one decimating analysis step with periodic
// boundaries, writing approximation into a and detail into d (each
// len(x)/2). len(x) must be even and at least the filter length.
// Output i sums h[k]·x[2i+k] (and g[k]·x[2i+k]) over ascending k; four
// outputs run per step over plain subslices while their taps stay
// inside x, and only the tail wraps.
func (w *Orthogonal) analyzeOne(x, a, d []float64) {
	n := len(x)
	h := w.h
	L := len(h)
	g := w.gf[:L]
	half := n / 2
	// Outputs below inner read x[2i : 2i+L] without wrapping.
	inner := (n-L)/2 + 1
	i := 0
	for ; i+4 <= inner; i += 4 {
		b := 2 * i
		x0 := x[b : b+L]
		x1 := x[b+2 : b+2+L]
		x2 := x[b+4 : b+4+L]
		x3 := x[b+6 : b+6+L]
		var sa0, sa1, sa2, sa3 float64
		for k, hk := range h {
			sa0 += hk * x0[k]
			sa1 += hk * x1[k]
			sa2 += hk * x2[k]
			sa3 += hk * x3[k]
		}
		var sd0, sd1, sd2, sd3 float64
		for k, gk := range g {
			sd0 += gk * x0[k]
			sd1 += gk * x1[k]
			sd2 += gk * x2[k]
			sd3 += gk * x3[k]
		}
		as, ds := a[i:i+4], d[i:i+4]
		as[0], as[1], as[2], as[3] = sa0, sa1, sa2, sa3
		ds[0], ds[1], ds[2], ds[3] = sd0, sd1, sd2, sd3
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
// len(x)), in ascending i. Outputs from L-2 on take no wrapped taps and
// run four per step; the L-2 head outputs and the tail go through
// synthesizeAt. len(x) must be even and at least the filter length.
func (w *Orthogonal) synthesizeOne(a, d, x []float64) {
	n := len(x)
	syn := w.syn
	T := len(syn)
	j := len(w.h) - 2
	for ; j+4 <= n; j += 4 {
		// Outputs j..j+3 are 2m, 2m+1, 2m+2, 2m+3: the first pair reads
		// a[m-T+1 : m+1], the second the same window one step on, so
		// each loaded coefficient serves both pairs.
		m := j / 2
		a1, d1 := a[m-T+2:m+2], d[m-T+2:m+2]
		d1 = d1[:len(a1)] // with syn[:len(a1)], no bounds check per tap
		av, dv := a[m-T+1], d[m-T+1]
		var x0, x1, x2, x3 float64
		for t, f := range syn[:len(a1)] {
			x0 += f[0]*av + f[2]*dv
			x1 += f[1]*av + f[3]*dv
			av, dv = a1[t], d1[t]
			x2 += f[0]*av + f[2]*dv
			x3 += f[1]*av + f[3]*dv
		}
		xs := x[j : j+4]
		xs[0], xs[1], xs[2], xs[3] = x0, x1, x2, x3
	}
	for ; j < n; j++ {
		x[j] = w.synthesizeAt(a, d, n, j)
	}
	for j := 0; j < len(w.h)-2; j++ {
		x[j] = w.synthesizeAt(a, d, n, j)
	}
}

// synthesizeAt returns synthesis output j of an n-sample level tap by
// tap: first the taps inside the signal (i = (j-k)/2), then those
// wrapped from its end (i = (j+n-k)/2), each in ascending i. With n at
// least the filter length every wrapped i exceeds every unwrapped one,
// so this is the scatter's order.
func (w *Orthogonal) synthesizeAt(a, d []float64, n, j int) float64 {
	h, g := w.h, w.gf
	top := len(h) - 2 + j&1 // the largest tap of j's parity
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
