package cs

import (
	"errors"
	"math/rand"
	"sync"

	"wbsn/internal/wavelet"
)

// ErrSolver is returned when solver inputs are inconsistent.
var ErrSolver = errors.New("cs: inconsistent solver inputs")

// SolverConfig parameterises the FISTA reconstructions: the knobs the
// gateway, the fleet, netgw and the benchmarks set. The sparsity basis
// (Daubechies-8 over five levels), the penalty weight and the
// early-exit floor are the constants below.
type SolverConfig struct {
	// Iters is the FISTA iteration budget per pass (default 200). With
	// Tol == 0 the solver always runs the full budget.
	Iters int
	// Reweights is the number of iterative-reweighting passes after the
	// first solve (Candès-Wakin-Boyd style: w_i ∝ 1/(|θ_i|+ε), a
	// log-penalty surrogate that sharpens recovery of the large
	// coefficients). 0 disables reweighting.
	Reweights int
	// Tol enables the convergence-aware solver: a pass stops early once
	// the relative iterate change ‖θ_k − θ_{k−1}‖/‖θ_k‖ drops below Tol
	// AND the objective has stopped decreasing by more than a Tol
	// fraction between consecutive checks. Tol > 0 also arms the
	// O'Donoghue–Candès adaptive momentum restart. Tol == 0 (the
	// default) keeps the fixed-budget solver bit-identical to the
	// pre-convergence-aware implementation.
	Tol float64
}

// The solver's fixed parameters.
const (
	// levels is the DWT depth of the sparsity basis.
	levels = 5
	// lambdaRel sets the penalty weight λ as a fraction of the largest
	// group norm of the back-projected measurements ΨᵀΦᵀy.
	lambdaRel = 0.01
	// minIters floors the iteration count of each pass before the Tol
	// test may fire. It guards against exiting on the flat early
	// iterations of a cold start.
	minIters = 10
	// powerSeed seeds the power iteration of the Lipschitz estimate.
	powerSeed = 777
)

// basis is the orthonormal sparsity basis Ψ.
var basis = wavelet.Daubechies8()

func (c SolverConfig) withDefaults() SolverConfig {
	out := c
	if out.Iters <= 0 {
		out.Iters = 200
	}
	return out
}

// SolveStats reports one reconstruction's convergence behaviour. All
// counters aggregate over reweighting passes.
type SolveStats struct {
	// Iters is the number of FISTA iterations actually executed.
	Iters int
	// Restarts counts adaptive momentum restarts (tk reset to 1).
	Restarts int
	// EarlyExit reports whether at least one pass stopped before its
	// iteration budget.
	EarlyExit bool
	// Warm reports whether the solve was seeded from a WarmState.
	Warm bool
	// ColdFallback reports that a warm solve diverged and the window was
	// re-solved from a cold start (the returned signal is the cold one).
	ColdFallback bool
}

// tinyNormSq keeps the relative-change test meaningful when the
// iterate is exactly zero (silent windows converge immediately instead
// of dividing by zero).
const tinyNormSq = 1e-24

// Decoder reconstructs windows from CS measurements. It is receiver-side
// machinery (phones/servers in the paper's architecture) and therefore
// uses floating point freely.
//
// A Decoder holds one sensing matrix per lead. With a single matrix all
// leads share it (the cheapest node design); with per-lead matrices the
// joint solver additionally benefits from measurement diversity across
// channels, as each lead then observes the common support through a
// different projection (the JSM-2 setting of the distributed-CS
// literature underlying ref [6]).
// All fields are immutable after construction; per-call work buffers come
// from the scratch pools, so one Decoder may reconstruct from many
// goroutines concurrently. Cross-window solver state lives in caller-
// owned WarmState values, never in the Decoder.
type Decoder struct {
	phis    []Matrix
	cfg     SolverConfig
	lip     float64 // max ||Φ_l||² (orthonormal Ψ preserves operator norms)
	step    float64 // 1/lip, the FISTA gradient step (cached)
	n, m    int
	weights []float64  // per-coefficient penalty weights (0 = unpenalised)
	bpool   *sync.Pool // *batchScratch
}

// NewDecoder builds a decoder in which every lead shares the one sensing
// matrix.
func NewDecoder(phi Matrix, cfg SolverConfig) (*Decoder, error) {
	return NewJointDecoder([]Matrix{phi}, cfg)
}

// NewJointDecoder builds a decoder with one sensing matrix per lead. All
// matrices must agree in dimensions. Leads beyond len(phis) reuse the
// last matrix.
func NewJointDecoder(phis []Matrix, cfg SolverConfig) (*Decoder, error) {
	if len(phis) == 0 {
		return nil, ErrSolver
	}
	c := cfg.withDefaults()
	n, m := phis[0].Cols(), phis[0].Rows()
	for _, p := range phis[1:] {
		if p.Cols() != n || p.Rows() != m {
			return nil, ErrSolver
		}
	}
	// The window must divide into the DWT pyramid, and every level must
	// hold at least the wavelet's taps (db8 over 64 samples at 5 levels
	// would leave a 4-sample last level).
	if basis.CheckLength(n, levels) != nil {
		return nil, ErrSolver
	}
	rng := rand.New(rand.NewSource(powerSeed))
	lip := 0.0
	for _, p := range phis {
		if l := OperatorNorm(p, 30, rng); l > lip {
			lip = l
		}
	}
	if lip <= 0 {
		return nil, ErrSolver
	}
	d := &Decoder{phis: phis, cfg: c, lip: lip * 1.02, n: n, m: m}
	d.step = 1 / d.lip
	// The coarse approximation band (the first n >> levels coefficients)
	// stays unpenalised (weight 0): its few coefficients carry the signal
	// trend and are not sparse — standard practice in wavelet-CS.
	d.weights = make([]float64, n)
	for i := n >> levels; i < n; i++ {
		d.weights[i] = 1
	}
	d.bpool = newBatchPool()
	return d, nil
}

// Clone returns a decoder that shares every piece of immutable derived
// state — sensing matrices, Lipschitz bound, penalty weights — but owns
// a private scratch pool. Engine workers use clones so their
// steady-state buffers never migrate between OS threads.
func (d *Decoder) Clone() *Decoder {
	out := *d
	out.bpool = newBatchPool()
	return &out
}

// matrixFor returns the sensing matrix used by lead l.
func (d *Decoder) matrixFor(l int) Matrix {
	if l < len(d.phis) {
		return d.phis[l]
	}
	return d.phis[len(d.phis)-1]
}

// Every FISTA reconstruction below is a one-item batch: the batched
// structure-of-arrays solver (batch.go, batch_joint.go) is the only
// implementation, so a window decodes bit-identically whether it was
// solved alone or folded into a K-window dispatch.

// ReconstructLeads reconstructs each lead independently — the
// "Single-Lead CS" strategy of Figure 5 applied per lead. Over a
// one-lead group the ℓ2,1 penalty is the ℓ1 norm, so each lead is a
// one-lead joint solve against that lead's sensing matrix, at the
// decoder's step.
func (d *Decoder) ReconstructLeads(ys [][]float64) ([][]float64, error) {
	out := make([][]float64, len(ys))
	for i := range ys {
		mi := d.matrixIndexFor(i)
		dl := *d
		dl.phis = d.phis[mi : mi+1]
		x, err := dl.ReconstructJoint(ys[i : i+1])
		if err != nil {
			return nil, err
		}
		out[i] = x[0]
	}
	return out, nil
}

// ReconstructJoint solves the multi-lead problem of ref [6]: the leads
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
func (d *Decoder) ReconstructJoint(ys [][]float64) ([][]float64, error) {
	xs, _, err := d.ReconstructJointWarm(ys, nil)
	return xs, err
}

// ReconstructJointWarm is ReconstructJoint seeded from (and feeding) a
// WarmState. The carried coefficients live in the solver's unit-RMS
// domain, so slowly drifting lead gains do not stale the seed. ws may
// be nil (cold solve with stats).
func (d *Decoder) ReconstructJointWarm(ys [][]float64, ws *WarmState) ([][]float64, SolveStats, error) {
	it := BatchItem{Y: ys, Warm: ws}
	items := [1]*BatchItem{&it}
	d.ReconstructJointBatch(items[:])
	return it.X, it.Stats, it.Err
}
