package cs

// Batched structure-of-arrays FISTA — the package's only FISTA
// implementation: every Reconstruct* call is a one-item batch, a
// single lead is a one-lead joint solve, and the gateway engine
// dispatches K windows at once. Each window's per-lead coefficient
// vectors live as contiguous n-long stripes ("planes") of shared
// backing slices, Φ derived state is read once per batch, every Φ and
// Φᵀ sweep of an iteration covers all still-active planes in 3-plane
// tiles (matrix_batch.go), and the wavelet transforms run plane by
// plane through the 8-tap DWT kernels. This file holds the shared
// buffers and the batched gradient; the per-window control flow —
// reweighting passes, adaptive restart, Tol early exit, warm seeding,
// divergence fallback — is the joint solver's per-item state machine
// (batch_joint.go), stepped in lockstep global iterations, so a
// converged window simply drops out of the active list without
// stalling the rest.
//
// Bit-identity contract: per window the floating-point operation
// sequence does not depend on K or on the batchmates — solving K
// windows batched returns bit-identical signals and identical
// SolveStats to K one-window solves, at every K. batch_test.go pins
// this against a frozen copy of the original scalar solver
// (scalar_ref_test.go). That is what lets gateway.Engine form batches
// opportunistically without changing any output.

import (
	"sync"

	"wbsn/internal/wavelet"
)

// BatchItem is one window's slot in a batched reconstruction. The
// caller fills Y (and optionally Warm); the solver fills X, Stats and
// Err. The WarmState sequencing contract is unchanged: at most one item
// per WarmState per batch, windows of one stream in order.
type BatchItem struct {
	// Y holds the window's per-lead measurement vectors (each of length
	// m).
	Y [][]float64
	// Warm, when non-nil, seeds the solve from (and feeds back into) the
	// stream's carried coefficients, exactly like Reconstruct*Warm.
	Warm *WarmState
	// X receives the reconstructed leads.
	X [][]float64
	// Stats receives the solve's convergence counters.
	Stats SolveStats
	// Err receives ErrSolver when the item's measurements do not match
	// the decoder geometry; such items are skipped, the rest of the
	// batch proceeds.
	Err error
}

// planeState names one window-lead plane's sensing matrix.
type planeState struct {
	phi Matrix
	mi  int // index into d.phis, for per-matrix kernel grouping
}

// jointState is the per-item FISTA control state; the item's L planes
// advance together.
type jointState struct {
	item      int
	planeBase int
	L         int
	warm      bool
	lambda    float64
	pass, it  int
	tk        float64
	lastObj   float64
	objValid  bool
}

// batchScratch holds the structure-of-arrays buffers of one batched
// reconstruction. Plane buffers are planeCap×n (or ×m); everything
// grows on demand and is pooled per Decoder.
type batchScratch struct {
	planeCap, n, m int

	theta, prev, mom, grad, z, x, rw []float64 // planeCap*n
	y, ax                            []float64 // planeCap*m

	sws wavelet.Scratch // DWT ping-pong buffers

	objX  []float64 // n — per-plane objective/divergence work
	objAx []float64 // m

	gains []float64 // planeCap — joint per-plane RMS gains
	norms []float64 // n — joint group norms (one item at a time)

	planes       []planeState
	joints       []jointState
	active, next []int
	gradPlanes   []int   // plane list of the active items
	groups       [][]int // per-matrix plane buckets

	lt, lp, lm, lg [][]float64 // per-lead stripe views (reused)
}

func (bs *batchScratch) ensure(planes, n, m, mats, maxL int) {
	if bs.n != n || bs.m != m {
		bs.planeCap = 0
		bs.n, bs.m = n, m
	}
	if planes > bs.planeCap {
		bs.theta = make([]float64, planes*n)
		bs.prev = make([]float64, planes*n)
		bs.mom = make([]float64, planes*n)
		bs.grad = make([]float64, planes*n)
		bs.z = make([]float64, planes*n)
		bs.x = make([]float64, planes*n)
		bs.rw = make([]float64, planes*n)
		bs.y = make([]float64, planes*m)
		bs.ax = make([]float64, planes*m)
		bs.gains = make([]float64, planes)
		bs.planes = make([]planeState, 0, planes)
		bs.joints = make([]jointState, 0, planes)
		bs.active = make([]int, 0, planes)
		bs.next = make([]int, 0, planes)
		bs.gradPlanes = make([]int, 0, planes)
		bs.planeCap = planes
	}
	if len(bs.objX) < n {
		bs.objX = make([]float64, n)
		bs.norms = make([]float64, n)
	}
	if len(bs.objAx) < m {
		bs.objAx = make([]float64, m)
	}
	for len(bs.groups) < mats {
		bs.groups = append(bs.groups, nil)
	}
	if cap(bs.lt) < maxL {
		bs.lt = make([][]float64, 0, maxL)
		bs.lp = make([][]float64, 0, maxL)
		bs.lm = make([][]float64, 0, maxL)
		bs.lg = make([][]float64, 0, maxL)
	}
}

// nStripe returns plane p's n-long stripe of buf.
func nStripe(buf []float64, p, n int) []float64 { return buf[p*n : p*n+n] }

func newBatchPool() *sync.Pool {
	return &sync.Pool{New: func() any { return &batchScratch{} }}
}

// matrixIndexFor returns the d.phis index lead l resolves to.
func (d *Decoder) matrixIndexFor(l int) int {
	if l < len(d.phis) {
		return l
	}
	return len(d.phis) - 1
}

// synthBatch / analyzeBatch run the DWT over the listed planes, one
// plane at a time.
func (d *Decoder) synthBatch(theta, x []float64, planes []int, bs *batchScratch) {
	for _, p := range planes {
		if err := basis.InverseInto(nStripe(theta, p, d.n), levels, nStripe(x, p, d.n), &bs.sws); err != nil {
			panic("cs: internal synthesis error: " + err.Error())
		}
	}
}

func (d *Decoder) analyzeBatch(x, theta []float64, planes []int, bs *batchScratch) {
	for _, p := range planes {
		if err := basis.ForwardInto(nStripe(x, p, d.n), levels, nStripe(theta, p, d.n), &bs.sws); err != nil {
			panic("cs: internal analysis error: " + err.Error())
		}
	}
}

// applyBatchGroups computes y_p = Φ_p x_p over the listed planes,
// bucketing planes by sensing matrix so each matrix's index stream is
// walked once per sweep.
func (d *Decoder) applyBatchGroups(x, y []float64, planes []int, bs *batchScratch, forward bool) {
	apply1 := func(phi Matrix, p int) {
		if forward {
			phi.Apply(nStripe(x, p, d.n), y[p*d.m:p*d.m+d.m])
		} else {
			phi.ApplyT(x[p*d.m:p*d.m+d.m], nStripe(y, p, d.n))
		}
	}
	run := func(phi Matrix, group []int) {
		if ba, ok := phi.(batchApplier); ok {
			if forward {
				ba.applyBatch(x, d.n, y, d.m, group)
			} else {
				ba.applyTBatch(x, d.m, y, d.n, group)
			}
			return
		}
		for _, p := range group {
			apply1(phi, p)
		}
	}
	if len(d.phis) == 1 {
		run(d.phis[0], planes)
		return
	}
	for gi := range bs.groups {
		bs.groups[gi] = bs.groups[gi][:0]
	}
	for _, p := range planes {
		mi := bs.planes[p].mi
		bs.groups[mi] = append(bs.groups[mi], p)
	}
	for gi, g := range bs.groups {
		if len(g) > 0 {
			run(d.phis[gi], g)
		}
	}
}

// gradBatch computes grad_p = ΨᵀΦᵀ(ΦΨ mom_p − y_p) for every listed
// plane: the synthesis of every plane, one batched Φ, a per-plane
// residual subtraction, one batched Φᵀ and the analysis of every plane.
func (d *Decoder) gradBatch(planes []int, bs *batchScratch) {
	d.synthBatch(bs.mom, bs.x, planes, bs)
	d.applyBatchGroups(bs.x, bs.ax, planes, bs, true)
	m := d.m
	for _, p := range planes {
		ax := bs.ax[p*m : p*m+m]
		y := bs.y[p*m : p*m+m]
		for i := range ax {
			ax[i] -= y[i]
		}
	}
	d.applyBatchGroups(bs.ax, bs.z, planes, bs, false)
	d.analyzeBatch(bs.z, bs.grad, planes, bs)
}
