package cs

// Frozen scalar FISTA oracle. This is a verbatim, test-only copy of the
// one-window solvers (single-lead ℓ1 and joint ℓ2,1, fixed budget and
// Tol early exit, warm seeding and cold fallback) that Reconstruct*
// ran before every window was routed through the batched
// structure-of-arrays kernels. The batch tests solve the same windows
// through both and require bit-identical signals and identical
// SolveStats, so the batched code is always checked against separate
// reference code. Do not "fix" or modernise this file: its value is
// that it does not change. The only edits from the original are
// mechanical: the scratch type, its DWT helpers and the public entry
// points carry a ref prefix, each solve allocates its scratch instead
// of drawing it from the decoder's pool, the basis, depth, λ fraction
// and early-exit floor, once SolverConfig fields, are the package
// constants at the same values, and the single-lead entry points no
// test calls any more are gone. The single-lead ℓ1 solver has no
// batched counterpart: the package decodes a single lead as a one-lead
// joint solve, and TestSingleLeadPRDBudget scores that against
// refReconstructLeads.

import (
	"math"

	"wbsn/internal/wavelet"
)

// refScratch holds every intermediate buffer of one scalar solve.
type refScratch struct {
	x    []float64 // n — signal-domain work vector
	ax   []float64 // m — measurement-domain work vector
	z    []float64 // n — back-projection work vector
	aty  []float64 // n — ΨᵀΦᵀy
	grad []float64 // n — current gradient

	theta, prev, mom, rw []float64 // n — FISTA state

	ws wavelet.Scratch // DWT ping-pong buffers

	// Joint-solver per-lead buffers, grown on first multi-lead use.
	gains                      []float64   // L — per-lead RMS gains
	norms                      []float64   // n — group norms
	ysn                        [][]float64 // L×m — unit-RMS measurements
	jtheta, jprev, jmom, jgrad [][]float64 // L×n
}

func newRefScratch(n, m int) *refScratch {
	return &refScratch{
		x:     make([]float64, n),
		ax:    make([]float64, m),
		z:     make([]float64, n),
		aty:   make([]float64, n),
		grad:  make([]float64, n),
		theta: make([]float64, n),
		prev:  make([]float64, n),
		mom:   make([]float64, n),
		rw:    make([]float64, n),
		norms: make([]float64, n),
	}
}

// ensureLeads grows the joint-solver buffers to cover L leads.
func (s *refScratch) ensureLeads(L, n, m int) {
	if cap(s.gains) < L {
		s.gains = make([]float64, L)
	}
	for len(s.ysn) < L {
		s.ysn = append(s.ysn, make([]float64, m))
	}
	for len(s.jtheta) < L {
		s.jtheta = append(s.jtheta, make([]float64, n))
		s.jprev = append(s.jprev, make([]float64, n))
		s.jmom = append(s.jmom, make([]float64, n))
		s.jgrad = append(s.jgrad, make([]float64, n))
	}
}

// refSynthInto is synth writing into out, drawing DWT intermediates from s.
func (d *Decoder) refSynthInto(theta, out []float64, s *refScratch) {
	if err := basis.InverseInto(theta, levels, out, &s.ws); err != nil {
		panic("cs: internal synthesis error: " + err.Error())
	}
}

// refAnalyzeInto is analyze writing into out, drawing DWT intermediates
// from s.
func (d *Decoder) refAnalyzeInto(x, out []float64, s *refScratch) {
	if err := basis.ForwardInto(x, levels, out, &s.ws); err != nil {
		panic("cs: internal analysis error: " + err.Error())
	}
}

// refGradInto computes ∇f(θ) = Ψᵀ Φᵀ(Φ Ψ θ − y) into dst for the given lead
// matrix. It clobbers s.x, s.ax and s.z; dst must not alias them.
func (d *Decoder) refGradInto(phi Matrix, theta, y, dst []float64, s *refScratch) {
	d.refSynthInto(theta, s.x, s)
	phi.Apply(s.x, s.ax)
	for i := range s.ax {
		s.ax[i] -= y[i]
	}
	phi.ApplyT(s.ax, s.z)
	d.refAnalyzeInto(s.z, dst, s)
}

// objectiveSingle evaluates F(θ) = ½‖ΦΨθ − y‖² + λ‖W·rw·θ‖₁ for the
// current reweighting. It clobbers s.x and s.ax (both free between
// iterations); called only when the relative-change test has already
// passed, so its cost — about half a gradient — is paid a handful of
// times per solve.
func (d *Decoder) objectiveSingle(phi Matrix, theta, y []float64, lambda float64, rw []float64, s *refScratch) float64 {
	d.refSynthInto(theta, s.x, s)
	phi.Apply(s.x, s.ax)
	data := 0.0
	for i, v := range s.ax {
		r := v - y[i]
		data += r * r
	}
	pen := 0.0
	for i, v := range theta {
		if v != 0 {
			pen += d.weights[i] * rw[i] * math.Abs(v)
		}
	}
	return 0.5*data + lambda*pen
}

// divergedSingle reports whether the final iterate explains the data
// worse than the zero vector (‖ΦΨθ − y‖² > ‖y‖², or non-finite) — the
// warm-start fallback trigger.
func (d *Decoder) divergedSingle(phi Matrix, theta, y []float64, s *refScratch) bool {
	d.refSynthInto(theta, s.x, s)
	phi.Apply(s.x, s.ax)
	num, den := 0.0, 0.0
	for i, v := range s.ax {
		r := v - y[i]
		num += r * r
	}
	for _, v := range y {
		den += v * v
	}
	return !(num <= den)
}

// solveSingle runs the (re-weighted) single-lead FISTA solve for one
// measurement vector, leaving the final coefficients in s.theta. warm,
// when non-nil, seeds the first pass (and each reweighting pass then
// refines the running estimate instead of restarting from zero); st,
// when non-nil, accumulates convergence counters.
//
// With cfg.Tol == 0 and warm == nil this is bit-identical to the
// fixed-budget solver of the previous revision: the adaptive branches
// (restart, early exit) are armed only by Tol > 0.
func (d *Decoder) solveSingle(phi Matrix, y []float64, s *refScratch, warm []float64, st *SolveStats) {
	phi.ApplyT(y, s.z)
	d.refAnalyzeInto(s.z, s.aty, s)
	maxAbs := 0.0
	for _, v := range s.aty {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	lambda := lambdaRel * maxAbs
	step := d.step
	adaptive := d.cfg.Tol > 0
	tol := d.cfg.Tol
	theta, prev, mom, rw := s.theta, s.prev, s.mom, s.rw
	for i := range rw {
		rw[i] = 1
	}
	for pass := 0; pass <= d.cfg.Reweights; pass++ {
		switch {
		case warm != nil && pass == 0:
			copy(theta, warm)
			copy(mom, theta)
		case warm != nil:
			// Warm reweighting passes continue from the running estimate.
			copy(mom, theta)
		default:
			for i := range theta {
				theta[i] = 0
				prev[i] = 0
				mom[i] = 0
			}
		}
		tk := 1.0
		lastObj := 0.0
		objValid := false
		for it := 0; it < d.cfg.Iters; it++ {
			d.refGradInto(phi, mom, y, s.grad, s)
			copy(prev, theta)
			var diffSq, normSq float64
			if adaptive {
				for i := range theta {
					v := softThreshold(mom[i]-step*s.grad[i], step*lambda*d.weights[i]*rw[i])
					dd := v - prev[i]
					diffSq += dd * dd
					normSq += v * v
					theta[i] = v
				}
			} else {
				for i := range theta {
					theta[i] = softThreshold(mom[i]-step*s.grad[i], step*lambda*d.weights[i]*rw[i])
				}
			}
			if st != nil {
				st.Iters++
			}
			restart := false
			if adaptive {
				// O'Donoghue–Candès gradient-scheme restart: the composite
				// gradient mapping (mom − θ_new) points against the actual
				// step (θ_new − θ_old) when the momentum has overshot —
				// drop it and re-accelerate from rest.
				dot := 0.0
				for i := range theta {
					dot += (mom[i] - theta[i]) * (theta[i] - prev[i])
				}
				if dot > 0 {
					restart = true
					if st != nil {
						st.Restarts++
					}
				}
			}
			if adaptive && it+1 >= minIters && diffSq <= tol*tol*(normSq+tinyNormSq) {
				// Relative change has flattened; confirm the objective has
				// stopped decreasing before stopping (a momentum stall can
				// flatten θ while F still has room to fall).
				obj := d.objectiveSingle(phi, theta, y, lambda, rw, s)
				if objValid && obj >= lastObj*(1-tol) {
					if st != nil {
						st.EarlyExit = true
					}
					break
				}
				lastObj, objValid = obj, true
			}
			if restart {
				tk = 1
				copy(mom, theta)
				continue
			}
			tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
			beta := (tk - 1) / tNext
			for i := range mom {
				mom[i] = theta[i] + beta*(theta[i]-prev[i])
			}
			tk = tNext
		}
		if pass == d.cfg.Reweights {
			break
		}
		// Candès-Wakin-Boyd reweighting around the current estimate.
		peak := 0.0
		for _, v := range theta {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
		eps := 0.05*peak + 1e-12
		for i := range rw {
			rw[i] = eps / (math.Abs(theta[i]) + eps)
		}
	}
}

// softThreshold applies the ℓ1 proximal operator elementwise.
func softThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

func (d *Decoder) reconstructWith(phi Matrix, y []float64) ([]float64, error) {
	x, _, err := d.reconstructWarmWith(phi, y, nil, 0)
	return x, err
}

// reconstructWarmWith is the shared single-lead entry point: it solves
// for one lead, optionally seeded from (and saved back to) slot `lead`
// of ws, and reports convergence stats.
func (d *Decoder) reconstructWarmWith(phi Matrix, y []float64, ws *WarmState, lead int) ([]float64, SolveStats, error) {
	var st SolveStats
	if len(y) != d.m {
		return nil, st, ErrSolver
	}
	s := newRefScratch(d.n, d.m)
	warm := ws.seed(lead, d.n)
	st.Warm = warm != nil
	d.solveSingle(phi, y, s, warm, &st)
	if warm != nil && d.divergedSingle(phi, s.theta, y, s) {
		// The carried coefficients poisoned the solve (corrupted window,
		// morphology jump): redo from a cold start. The extra iterations
		// stay in st — they were really spent.
		st.ColdFallback = true
		st.Warm = false
		d.solveSingle(phi, y, s, nil, &st)
	}
	ws.store(lead, s.theta)
	out := make([]float64, d.n)
	d.refSynthInto(s.theta, out, s)
	return out, st, nil
}

// refReconstructLeads reconstructs each lead independently — the
// "Single-Lead CS" strategy of Figure 5 applied per lead. Lead l uses
// its own sensing matrix when the decoder was built with per-lead
// matrices.
func (d *Decoder) refReconstructLeads(ys [][]float64) ([][]float64, error) {
	out := make([][]float64, len(ys))
	for i, y := range ys {
		x, err := d.reconstructWith(d.matrixFor(i), y)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// refReconstructJoint solves the multi-lead problem of ref [6]: the leads
// share sparsity structure, so the solver minimises
//
//	½ Σ_l ||Φ_l Ψθ_l − y_l||² + λ Σ_j w_j ||θ_{·j}||₂
//
// where the second term is the mixed ℓ2,1 norm grouping coefficient j
// across all leads. The proximal step is group soft-thresholding, which
// keeps a coefficient alive in every lead when the group's joint energy
// is high — recovering weak-lead detail that independent ℓ1 loses.
// Because the leads project the same dipole with very different gains,
// each lead's measurements are normalised to unit RMS for the solve and
// rescaled afterwards.
func (d *Decoder) refReconstructJoint(ys [][]float64) ([][]float64, error) {
	out, _, err := d.reconstructJoint(ys, nil)
	return out, err
}

// refReconstructJointWarm is refReconstructJoint seeded from (and feeding) a
// WarmState. The carried coefficients live in the solver's unit-RMS
// domain, so slowly drifting lead gains do not stale the seed. ws may
// be nil (cold solve with stats).
func (d *Decoder) refReconstructJointWarm(ys [][]float64, ws *WarmState) ([][]float64, SolveStats, error) {
	return d.reconstructJoint(ys, ws)
}

func (d *Decoder) reconstructJoint(ys [][]float64, ws *WarmState) ([][]float64, SolveStats, error) {
	var st SolveStats
	L := len(ys)
	if L == 0 {
		return nil, st, ErrSolver
	}
	for _, y := range ys {
		if len(y) != d.m {
			return nil, st, ErrSolver
		}
	}
	s := newRefScratch(d.n, d.m)
	s.ensureLeads(L, d.n, d.m)
	gains := s.gains[:L]
	ysn := s.ysn[:L]
	for l, y := range ys {
		rms := 0.0
		for _, v := range y {
			rms += v * v
		}
		rms = math.Sqrt(rms / float64(len(y)))
		if rms == 0 {
			rms = 1
		}
		gains[l] = rms
		inv := 1 / rms
		for i, v := range y {
			ysn[l][i] = v * inv
		}
	}
	// λ from the group norms of the back-projected data, accumulated
	// lead by lead so the per-lead back-projections need no storage.
	norms := s.norms
	for j := range norms {
		norms[j] = 0
	}
	for l := 0; l < L; l++ {
		d.matrixFor(l).ApplyT(ysn[l], s.z)
		d.refAnalyzeInto(s.z, s.aty, s)
		for j, v := range s.aty {
			norms[j] += v * v
		}
	}
	groupMax := 0.0
	for _, g := range norms {
		if g > groupMax {
			groupMax = g
		}
	}
	lambda := lambdaRel * math.Sqrt(groupMax)
	if ws != nil {
		ws.prepare(L, d.n)
	}
	warm := ws.seedAll(L, d.n)
	st.Warm = warm != nil
	d.solveJoint(ysn, L, lambda, s, warm, &st)
	if warm != nil && d.divergedJoint(ysn, L, s) {
		st.ColdFallback = true
		st.Warm = false
		d.solveJoint(ysn, L, lambda, s, nil, &st)
	}
	theta := s.jtheta[:L]
	out := make([][]float64, L)
	for l := 0; l < L; l++ {
		ws.store(l, theta[l])
		out[l] = make([]float64, d.n)
		d.refSynthInto(theta[l], out[l], s)
		for i := range out[l] {
			out[l][i] *= gains[l]
		}
	}
	ws.commit()
	return out, st, nil
}

// objectiveJoint evaluates the group-sparse objective
// Σ_l ½‖Φ_l Ψθ_l − ysn_l‖² + λ Σ_j w_j rw_j ‖θ_{·j}‖₂ on the
// normalised measurements. Clobbers s.x and s.ax.
func (d *Decoder) objectiveJoint(ysn [][]float64, L int, lambda float64, s *refScratch) float64 {
	theta := s.jtheta[:L]
	data := 0.0
	for l := 0; l < L; l++ {
		d.refSynthInto(theta[l], s.x, s)
		d.matrixFor(l).Apply(s.x, s.ax)
		for i, v := range s.ax {
			r := v - ysn[l][i]
			data += r * r
		}
	}
	pen := 0.0
	for j := 0; j < d.n; j++ {
		w := d.weights[j] * s.rw[j]
		if w == 0 {
			continue
		}
		g := 0.0
		for l := 0; l < L; l++ {
			g += theta[l][j] * theta[l][j]
		}
		if g != 0 {
			pen += w * math.Sqrt(g)
		}
	}
	return 0.5*data + lambda*pen
}

// divergedJoint is divergedSingle for the joint iterate: the summed
// data term must not exceed the energy of the (unit-RMS) measurements.
func (d *Decoder) divergedJoint(ysn [][]float64, L int, s *refScratch) bool {
	theta := s.jtheta[:L]
	num, den := 0.0, 0.0
	for l := 0; l < L; l++ {
		d.refSynthInto(theta[l], s.x, s)
		d.matrixFor(l).Apply(s.x, s.ax)
		for i, v := range s.ax {
			r := v - ysn[l][i]
			num += r * r
		}
		for _, v := range ysn[l] {
			den += v * v
		}
	}
	return !(num <= den)
}

// solveJoint runs the (re-weighted) group-sparse FISTA solve over the
// normalised measurements, leaving the final coefficients in
// s.jtheta[:L]. warm, when non-nil, holds one unit-RMS-domain seed per
// lead. Bit-identical to the previous fixed-budget implementation when
// cfg.Tol == 0 and warm == nil.
func (d *Decoder) solveJoint(ysn [][]float64, L int, lambda float64, s *refScratch, warm [][]float64, st *SolveStats) {
	step := d.step
	adaptive := d.cfg.Tol > 0
	tol := d.cfg.Tol
	theta := s.jtheta[:L]
	prev := s.jprev[:L]
	mom := s.jmom[:L]
	grads := s.jgrad[:L]
	rw := s.rw
	norms := s.norms
	for j := range rw {
		rw[j] = 1
	}
	for pass := 0; pass <= d.cfg.Reweights; pass++ {
		switch {
		case warm != nil && pass == 0:
			for l := 0; l < L; l++ {
				copy(theta[l], warm[l])
				copy(mom[l], theta[l])
			}
		case warm != nil:
			for l := 0; l < L; l++ {
				copy(mom[l], theta[l])
			}
		default:
			for l := 0; l < L; l++ {
				for i := range theta[l] {
					theta[l][i] = 0
					prev[l][i] = 0
					mom[l][i] = 0
				}
			}
		}
		tk := 1.0
		lastObj := 0.0
		objValid := false
		for it := 0; it < d.cfg.Iters; it++ {
			for l := 0; l < L; l++ {
				d.refGradInto(d.matrixFor(l), mom[l], ysn[l], grads[l], s)
			}
			for l := 0; l < L; l++ {
				copy(prev[l], theta[l])
			}
			// Group soft-threshold across leads at each coefficient index.
			for j := 0; j < d.n; j++ {
				norm := 0.0
				for l := 0; l < L; l++ {
					v := mom[l][j] - step*grads[l][j]
					theta[l][j] = v // stash pre-threshold value
					norm += v * v
				}
				th := step * lambda * d.weights[j] * rw[j]
				if th == 0 {
					continue
				}
				norm = math.Sqrt(norm)
				if norm <= th {
					for l := 0; l < L; l++ {
						theta[l][j] = 0
					}
					continue
				}
				shrink := 1 - th/norm
				for l := 0; l < L; l++ {
					theta[l][j] *= shrink
				}
			}
			if st != nil {
				st.Iters++
			}
			restart := false
			var diffSq, normSq float64
			if adaptive {
				dot := 0.0
				for l := 0; l < L; l++ {
					tl, pl, ml := theta[l], prev[l], mom[l]
					for i := range tl {
						dd := tl[i] - pl[i]
						diffSq += dd * dd
						normSq += tl[i] * tl[i]
						dot += (ml[i] - tl[i]) * dd
					}
				}
				if dot > 0 {
					restart = true
					if st != nil {
						st.Restarts++
					}
				}
			}
			if adaptive && it+1 >= minIters && diffSq <= tol*tol*(normSq+tinyNormSq) {
				obj := d.objectiveJoint(ysn, L, lambda, s)
				if objValid && obj >= lastObj*(1-tol) {
					if st != nil {
						st.EarlyExit = true
					}
					break
				}
				lastObj, objValid = obj, true
			}
			if restart {
				tk = 1
				for l := 0; l < L; l++ {
					copy(mom[l], theta[l])
				}
				continue
			}
			tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
			beta := (tk - 1) / tNext
			for l := 0; l < L; l++ {
				for i := range mom[l] {
					mom[l][i] = theta[l][i] + beta*(theta[l][i]-prev[l][i])
				}
			}
			tk = tNext
		}
		if pass == d.cfg.Reweights {
			break
		}
		// Group-level reweighting around the current estimate.
		peak := 0.0
		for j := 0; j < d.n; j++ {
			g := 0.0
			for l := 0; l < L; l++ {
				g += theta[l][j] * theta[l][j]
			}
			norms[j] = math.Sqrt(g)
			if norms[j] > peak {
				peak = norms[j]
			}
		}
		eps := 0.05*peak + 1e-12
		for j := range rw {
			rw[j] = eps / (norms[j] + eps)
		}
	}
}
