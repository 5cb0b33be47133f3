package cs

import (
	"math"

	"wbsn/internal/wavelet"
)

// OMP implements orthogonal matching pursuit over the wavelet-synthesis
// dictionary A = ΦΨ, Ψ the basis at the given DWT depth, the greedy
// reconstruction baseline against which convex (FISTA) recovery is
// compared. It selects atoms until either maxAtoms coefficients are
// active or the residual drops below tolFrac·||y||.
//
// OMP materialises A column-by-column through the decoder's synthesis
// operator; with n=512 this stays comfortably laptop-scale, but it is the
// expensive baseline — the benchmarks show why the node-side design puts
// all reconstruction cost on the receiver. No program runs it;
// BenchmarkAblationSolverVariants compares it with FISTA.
func (d *Decoder) OMP(y []float64, levels, maxAtoms int, tolFrac float64) ([]float64, error) {
	if len(y) != d.m {
		return nil, ErrSolver
	}
	if maxAtoms <= 0 || maxAtoms > d.m {
		maxAtoms = d.m / 2
	}
	if tolFrac <= 0 {
		tolFrac = 1e-4
	}
	// Precompute columns of A = ΦΨ lazily: column j is Φ(Ψ e_j).
	colCache := make(map[int][]float64)
	column := func(j int) []float64 {
		if c, ok := colCache[j]; ok {
			return c
		}
		e := make([]float64, d.n)
		e[j] = 1
		x := synth(e, levels)
		c := make([]float64, d.m)
		d.phis[0].Apply(x, c)
		colCache[j] = c
		return c
	}
	yNorm := 0.0
	for _, v := range y {
		yNorm += v * v
	}
	yNorm = math.Sqrt(yNorm)
	if yNorm == 0 {
		return make([]float64, d.n), nil
	}
	residual := make([]float64, d.m)
	copy(residual, y)
	var support []int
	inSupport := make([]bool, d.n)
	// Gram-Schmidt basis of the selected columns for fast LS updates.
	var qBasis [][]float64
	var rCoef [][]float64 // upper-triangular factors
	for len(support) < maxAtoms {
		// Correlations via Aᵀr = Ψᵀ Φᵀ r.
		z := make([]float64, d.n)
		d.phis[0].ApplyT(residual, z)
		corr := analyze(z, levels)
		best, bestAbs := -1, 0.0
		for j, v := range corr {
			if inSupport[j] {
				continue
			}
			if a := math.Abs(v); a > bestAbs {
				best, bestAbs = j, a
			}
		}
		if best < 0 || bestAbs < 1e-12 {
			break
		}
		inSupport[best] = true
		support = append(support, best)
		// Orthogonalise the new column against the existing basis.
		newCol := make([]float64, d.m)
		copy(newCol, column(best))
		coefs := make([]float64, len(qBasis))
		for qi, q := range qBasis {
			dot := 0.0
			for i := range q {
				dot += q[i] * newCol[i]
			}
			coefs[qi] = dot
			for i := range newCol {
				newCol[i] -= dot * q[i]
			}
		}
		norm := 0.0
		for _, v := range newCol {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			// Column linearly dependent; drop it from the support.
			support = support[:len(support)-1]
			inSupport[best] = false
			break
		}
		inv := 1 / norm
		for i := range newCol {
			newCol[i] *= inv
		}
		qBasis = append(qBasis, newCol)
		rCoef = append(rCoef, append(coefs, norm))
		// Update residual: subtract projection of y on the new basis
		// vector (basis is orthonormal, so residual update is direct).
		dot := 0.0
		for i := range newCol {
			dot += newCol[i] * y[i]
		}
		for i := range residual {
			residual[i] = 0
		}
		copy(residual, y)
		for _, q := range qBasis {
			qd := 0.0
			for i := range q {
				qd += q[i] * y[i]
			}
			for i := range residual {
				residual[i] -= qd * q[i]
			}
		}
		rn := 0.0
		for _, v := range residual {
			rn += v * v
		}
		if math.Sqrt(rn) < tolFrac*yNorm {
			break
		}
	}
	// Solve the least-squares coefficients by back substitution on R.
	k := len(support)
	theta := make([]float64, d.n)
	if k > 0 {
		// qy[i] = q_i · y
		qy := make([]float64, k)
		for i, q := range qBasis {
			dot := 0.0
			for j := range q {
				dot += q[j] * y[j]
			}
			qy[i] = dot
		}
		coef := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			v := qy[i]
			for j := i + 1; j < k; j++ {
				v -= rCoef[j][i] * coef[j]
			}
			coef[i] = v / rCoef[i][i]
		}
		for i, j := range support {
			theta[j] = coef[i]
		}
	}
	return synth(theta, levels), nil
}

// synth maps wavelet coefficients to the signal domain (x = Ψθ).
func synth(theta []float64, levels int) []float64 {
	x, err := inverseDWT(basis, theta, levels)
	if err != nil {
		panic("cs: internal synthesis error: " + err.Error())
	}
	return x
}

// analyze maps a signal to wavelet coefficients (θ = Ψᵀx).
func analyze(x []float64, levels int) []float64 {
	t := make([]float64, len(x))
	var s wavelet.Scratch
	if err := basis.ForwardInto(x, levels, t, &s); err != nil {
		panic("cs: internal analysis error: " + err.Error())
	}
	return t
}

// inverseDWT is the allocating form of w.InverseInto.
func inverseDWT(w *wavelet.Orthogonal, c []float64, levels int) ([]float64, error) {
	x := make([]float64, len(c))
	var s wavelet.Scratch
	return x, w.InverseInto(c, levels, x, &s)
}
