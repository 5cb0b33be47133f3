package cs

// Batched structure-of-arrays FISTA — the package's only FISTA
// implementation: Reconstruct* are one-item batches, and the gateway
// engine dispatches K windows at once. Each window's coefficient
// vectors live as contiguous n-long stripes ("planes") of shared
// backing slices, Φ derived state is read once per batch, every CSR
// walk of an iteration sweeps all still-active planes in 3-plane tiles
// (matrix_batch.go), and the wavelet transforms run plane by plane
// through the output-tiled DWT kernels. The per-window
// control flow — reweighting passes, adaptive restart, Tol early exit,
// warm seeding, divergence fallback — runs as an explicit per-plane
// state machine stepped in lockstep global iterations, so a converged
// window simply drops out of the active plane list without stalling
// the rest.
//
// Bit-identity contract: per window the floating-point operation
// sequence does not depend on K or on the batchmates — solving K
// windows batched returns bit-identical signals and identical
// SolveStats to K one-window solves, at every K. batch_test.go pins
// this against a frozen copy of the original scalar solver
// (scalar_ref_test.go). That is what lets gateway.Engine form batches
// opportunistically without changing any output.

import (
	"math"
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

// planeState is the per-plane (leads solver: one window-lead; joint
// solver: shared per item) FISTA control state.
type planeState struct {
	item, lead int
	phi        Matrix
	mi         int // index into d.phis, for per-matrix kernel grouping
	warm       bool
	lambda     float64
	pass, it   int
	tk         float64
	lastObj    float64
	objValid   bool
}

// jointState is the per-item control state of the batched joint solver;
// the item's L planes advance together.
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
	planeCap, itemCap, n, m int

	theta, prev, mom, grad, z, x, rw []float64 // planeCap*n
	y, ax                            []float64 // planeCap*m

	sws wavelet.Scratch // DWT ping-pong buffers

	objX  []float64 // n — per-plane objective/divergence work
	objAx []float64 // m

	gains []float64 // planeCap — joint per-plane RMS gains
	norms []float64 // n — joint group norms (one item at a time)

	planes        []planeState
	joints        []jointState
	active, next  []int
	gradPlanes    []int   // joint: plane list of the active items
	groups        [][]int // per-matrix plane buckets
	itemRemaining []int   // leads: unfinished planes per item

	lt, lp, lm, lg [][]float64 // joint per-lead stripe views (reused)
}

func (bs *batchScratch) ensure(planes, items, n, m, mats, maxL int) {
	if bs.n != n || bs.m != m {
		bs.planeCap, bs.itemCap = 0, 0
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
	if items > bs.itemCap {
		bs.itemRemaining = make([]int, items)
		bs.itemCap = items
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

func (d *Decoder) getBatchScratch(planes, items, maxL int) *batchScratch {
	bs := d.bpool.Get().(*batchScratch)
	bs.ensure(planes, items, d.n, d.m, len(d.phis), maxL)
	return bs
}

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
		if err := d.cfg.Wavelet.InverseInto(nStripe(theta, p, d.n), d.cfg.Levels, nStripe(x, p, d.n), &bs.sws); err != nil {
			panic("cs: internal synthesis error: " + err.Error())
		}
	}
}

func (d *Decoder) analyzeBatch(x, theta []float64, planes []int, bs *batchScratch) {
	for _, p := range planes {
		if err := d.cfg.Wavelet.ForwardInto(nStripe(x, p, d.n), d.cfg.Levels, nStripe(theta, p, d.n), &bs.sws); err != nil {
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

// initLambdas computes every plane's λ = LambdaRel·‖ΨᵀΦᵀy‖∞ with one
// batched back-projection (the leads solver; the joint solver derives
// group λ per item from the same batched back-projection).
func (d *Decoder) initLambdas(planes []int, bs *batchScratch) {
	d.applyBatchGroups(bs.y, bs.z, planes, bs, false)
	d.analyzeBatch(bs.z, bs.grad, planes, bs)
	for _, p := range planes {
		maxAbs := 0.0
		for _, v := range nStripe(bs.grad, p, d.n) {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		bs.planes[p].lambda = d.cfg.LambdaRel * maxAbs
	}
}

// objectivePlane evaluates F(θ) = ½‖ΦΨθ − y‖² + λ‖W·rw·θ‖₁ for one
// plane's current reweighting. It runs only when the relative-change
// test has already passed, so its cost — about half a gradient — is
// paid a handful of times per solve.
func (d *Decoder) objectivePlane(phi Matrix, theta, y []float64, lambda float64, rw []float64, bs *batchScratch) float64 {
	objX := bs.objX[:d.n]
	objAx := bs.objAx[:d.m]
	if err := d.cfg.Wavelet.InverseInto(theta, d.cfg.Levels, objX, &bs.sws); err != nil {
		panic("cs: internal synthesis error: " + err.Error())
	}
	phi.Apply(objX, objAx)
	data := 0.0
	for i, v := range objAx {
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

// divergedPlane reports whether a plane's final iterate explains the
// data worse than the zero vector (‖ΦΨθ − y‖² > ‖y‖², or non-finite) —
// the warm-start fallback trigger.
func (d *Decoder) divergedPlane(phi Matrix, theta, y []float64, bs *batchScratch) bool {
	objX := bs.objX[:d.n]
	objAx := bs.objAx[:d.m]
	if err := d.cfg.Wavelet.InverseInto(theta, d.cfg.Levels, objX, &bs.sws); err != nil {
		panic("cs: internal synthesis error: " + err.Error())
	}
	phi.Apply(objX, objAx)
	num, den := 0.0, 0.0
	for i, v := range objAx {
		r := v - y[i]
		num += r * r
	}
	for _, v := range y {
		den += v * v
	}
	return !(num <= den)
}

// seedPlanePass seeds one plane's reweighting pass — pass 0 of a warm
// solve from the carried coefficients, later warm passes from the
// running estimate, cold passes from zero — and resets its per-pass
// momentum/objective state.
func (d *Decoder) seedPlanePass(p *planeState, pi int, items []*BatchItem, bs *batchScratch) {
	n := d.n
	th := nStripe(bs.theta, pi, n)
	pv := nStripe(bs.prev, pi, n)
	mm := nStripe(bs.mom, pi, n)
	switch {
	case p.warm && p.pass == 0:
		copy(th, items[p.item].Warm.seed(p.lead, n))
		copy(mm, th)
	case p.warm:
		copy(mm, th)
	default:
		for i := range th {
			th[i] = 0
			pv[i] = 0
			mm[i] = 0
		}
	}
	p.tk = 1
	p.lastObj = 0
	p.objValid = false
}

// stepPlane advances one plane by one FISTA iteration (threshold,
// restart test, convergence test, momentum) and reports whether the
// plane is still active.
func (d *Decoder) stepPlane(pi int, items []*BatchItem, bs *batchScratch) bool {
	p := &bs.planes[pi]
	st := &items[p.item].Stats
	n := d.n
	th := nStripe(bs.theta, pi, n)
	pv := nStripe(bs.prev, pi, n)
	mm := nStripe(bs.mom, pi, n)
	gr := nStripe(bs.grad, pi, n)
	rw := nStripe(bs.rw, pi, n)
	y := bs.y[pi*d.m : pi*d.m+d.m]
	step := d.step
	adaptive := d.cfg.Tol > 0
	tol := d.cfg.Tol
	// One fused sweep: prev snapshot, soft-threshold, convergence and
	// restart accumulators. Each accumulator keeps the scalar
	// solver's i-ascending order and every per-element value is
	// unchanged, so the fusion is bit-identical.
	lamStep := step * p.lambda
	weights := d.weights
	var diffSq, normSq, dot float64
	if adaptive {
		for i := range th {
			old := th[i]
			pv[i] = old
			v := softThreshold(mm[i]-step*gr[i], lamStep*weights[i]*rw[i])
			dd := v - old
			diffSq += dd * dd
			normSq += v * v
			dot += (mm[i] - v) * dd
			th[i] = v
		}
	} else {
		for i := range th {
			pv[i] = th[i]
			th[i] = softThreshold(mm[i]-step*gr[i], lamStep*weights[i]*rw[i])
		}
	}
	st.Iters++
	restart := false
	if adaptive && dot > 0 {
		restart = true
		st.Restarts++
	}
	if adaptive && p.it+1 >= d.cfg.MinIters && diffSq <= tol*tol*(normSq+tinyNormSq) {
		obj := d.objectivePlane(p.phi, th, y, p.lambda, rw, bs)
		if p.objValid && obj >= p.lastObj*(1-tol) {
			st.EarlyExit = true
			return d.endPlanePass(pi, items, bs)
		}
		p.lastObj, p.objValid = obj, true
	}
	if restart {
		p.tk = 1
		copy(mm, th)
	} else {
		tNext := (1 + math.Sqrt(1+4*p.tk*p.tk)) / 2
		beta := (p.tk - 1) / tNext
		for i := range mm {
			mm[i] = th[i] + beta*(th[i]-pv[i])
		}
		p.tk = tNext
	}
	p.it++
	if p.it >= d.cfg.Iters {
		return d.endPlanePass(pi, items, bs)
	}
	return true
}

// endPlanePass closes one reweighting pass: either reweight and seed
// the next pass, or finish the plane (with warm-divergence fallback).
func (d *Decoder) endPlanePass(pi int, items []*BatchItem, bs *batchScratch) bool {
	p := &bs.planes[pi]
	n := d.n
	th := nStripe(bs.theta, pi, n)
	if p.pass < d.cfg.Reweights {
		rw := nStripe(bs.rw, pi, n)
		peak := 0.0
		for _, v := range th {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
		eps := 0.05*peak + 1e-12
		for i := range rw {
			rw[i] = eps / (math.Abs(th[i]) + eps)
		}
		p.pass++
		p.it = 0
		d.seedPlanePass(p, pi, items, bs)
		return true
	}
	item := items[p.item]
	y := bs.y[pi*d.m : pi*d.m+d.m]
	if p.warm && d.divergedPlane(p.phi, th, y, bs) {
		// The carried coefficients poisoned the solve: redo this plane
		// from a cold start inside the batch. The extra iterations stay
		// in Stats — they were really spent.
		item.Stats.ColdFallback = true
		p.warm = false
		rw := nStripe(bs.rw, pi, n)
		for i := range rw {
			rw[i] = 1
		}
		p.pass = 0
		p.it = 0
		d.seedPlanePass(p, pi, items, bs)
		return true
	}
	if p.warm {
		item.Stats.Warm = true
	}
	item.Warm.store(p.lead, th)
	if err := d.cfg.Wavelet.InverseInto(th, d.cfg.Levels, item.X[p.lead], &bs.sws); err != nil {
		panic("cs: internal synthesis error: " + err.Error())
	}
	bs.itemRemaining[p.item]--
	if bs.itemRemaining[p.item] == 0 {
		item.Warm.commit()
	}
	return false
}

// ReconstructLeadsBatch reconstructs every item's leads independently
// (the per-lead ℓ1 solver) in one structure-of-arrays pass. Per item it
// is bit-identical to a one-item batch — ReconstructLeadsWarm(item.Y,
// item.Warm) — at every batch size.
func (d *Decoder) ReconstructLeadsBatch(items []*BatchItem) {
	total := 0
	maxL := 1
	for _, it := range items {
		it.X, it.Err, it.Stats = nil, nil, SolveStats{}
		ok := true
		for _, y := range it.Y {
			if len(y) != d.m {
				ok = false
				break
			}
		}
		if !ok {
			it.Err = ErrSolver
			continue
		}
		total += len(it.Y)
		if len(it.Y) > maxL {
			maxL = len(it.Y)
		}
	}
	bs := d.getBatchScratch(total, len(items), maxL)
	defer d.bpool.Put(bs)
	bs.planes = bs.planes[:0]
	bs.active = bs.active[:0]
	for ii, it := range items {
		if it.Err != nil {
			continue
		}
		it.Warm.prepare(len(it.Y), d.n)
		it.X = make([][]float64, len(it.Y))
		bs.itemRemaining[ii] = len(it.Y)
		for l, y := range it.Y {
			pi := len(bs.planes)
			it.X[l] = make([]float64, d.n)
			copy(bs.y[pi*d.m:pi*d.m+d.m], y)
			warm := it.Warm.seed(l, d.n) != nil
			bs.planes = append(bs.planes, planeState{
				item: ii, lead: l, phi: d.matrixFor(l), mi: d.matrixIndexFor(l), warm: warm,
			})
			rw := nStripe(bs.rw, pi, d.n)
			for i := range rw {
				rw[i] = 1
			}
			bs.active = append(bs.active, pi)
		}
		if len(it.Y) == 0 {
			it.X = [][]float64{}
		}
	}
	if len(bs.active) == 0 {
		return
	}
	d.initLambdas(bs.active, bs)
	for _, pi := range bs.active {
		d.seedPlanePass(&bs.planes[pi], pi, items, bs)
	}
	active := bs.active
	spare := bs.next[:0]
	for len(active) > 0 {
		d.gradBatch(active, bs)
		next := spare[:0]
		for _, pi := range active {
			if d.stepPlane(pi, items, bs) {
				next = append(next, pi)
			}
		}
		active, spare = next, active[:0]
	}
}
