package cs

// Batched joint (group-sparse ℓ2,1) reconstruction: the package's one
// FISTA state machine. Each item's L lead planes advance in lockstep
// under one per-item control state, because the group soft-threshold
// couples a window's leads; the gradient runs per plane through the
// batched pipeline of batch.go. A one-lead item is the independent ℓ1
// solve: over a single lead the group norm is the coefficient's
// magnitude (ReconstructLeads).

import "math"

// objectiveItem evaluates the group-sparse objective
// Σ_l ½‖Φ_l Ψθ_l − ysn_l‖² + λ Σ_j w_j rw_j ‖θ_{·j}‖₂ over one item's
// plane stripes (normalised measurements).
func (d *Decoder) objectiveItem(jt *jointState, bs *batchScratch) float64 {
	n := d.n
	objX := bs.objX[:n]
	objAx := bs.objAx[:d.m]
	data := 0.0
	for l := 0; l < jt.L; l++ {
		pi := jt.planeBase + l
		th := nStripe(bs.theta, pi, n)
		if err := basis.InverseInto(th, levels, objX, &bs.sws); err != nil {
			panic("cs: internal synthesis error: " + err.Error())
		}
		bs.planes[pi].phi.Apply(objX, objAx)
		ysn := bs.y[pi*d.m : pi*d.m+d.m]
		for i, v := range objAx {
			r := v - ysn[i]
			data += r * r
		}
	}
	rw := nStripe(bs.rw, jt.planeBase, n)
	pen := 0.0
	for j := 0; j < n; j++ {
		w := d.weights[j] * rw[j]
		if w == 0 {
			continue
		}
		g := 0.0
		for l := 0; l < jt.L; l++ {
			v := bs.theta[(jt.planeBase+l)*n+j]
			g += v * v
		}
		if g != 0 {
			pen += w * math.Sqrt(g)
		}
	}
	return 0.5*data + jt.lambda*pen
}

// divergedItem reports whether one item's final iterate explains the
// data worse than the zero vector — the summed data term exceeds the
// energy of the (unit-RMS) measurements, or is not finite. It is the
// warm-start fallback trigger.
func (d *Decoder) divergedItem(jt *jointState, bs *batchScratch) bool {
	n := d.n
	objX := bs.objX[:n]
	objAx := bs.objAx[:d.m]
	num, den := 0.0, 0.0
	for l := 0; l < jt.L; l++ {
		pi := jt.planeBase + l
		th := nStripe(bs.theta, pi, n)
		if err := basis.InverseInto(th, levels, objX, &bs.sws); err != nil {
			panic("cs: internal synthesis error: " + err.Error())
		}
		bs.planes[pi].phi.Apply(objX, objAx)
		ysn := bs.y[pi*d.m : pi*d.m+d.m]
		for i, v := range objAx {
			r := v - ysn[i]
			num += r * r
		}
		for _, v := range ysn {
			den += v * v
		}
	}
	return !(num <= den)
}

// seedJointPass seeds one reweighting pass of an item's planes — pass 0
// of a warm solve from the carried per-lead unit-RMS-domain
// coefficients, later warm passes from the running estimate, cold
// passes from zero — and resets the item's per-pass momentum/objective
// state.
func (d *Decoder) seedJointPass(jt *jointState, items []*BatchItem, bs *batchScratch) {
	n := d.n
	for l := 0; l < jt.L; l++ {
		pi := jt.planeBase + l
		th := nStripe(bs.theta, pi, n)
		pv := nStripe(bs.prev, pi, n)
		mm := nStripe(bs.mom, pi, n)
		switch {
		case jt.warm && jt.pass == 0:
			copy(th, items[jt.item].Warm.seed(l, n))
			copy(mm, th)
		case jt.warm:
			copy(mm, th)
		default:
			for i := range th {
				th[i] = 0
				pv[i] = 0
				mm[i] = 0
			}
		}
	}
	jt.tk = 1
	jt.lastObj = 0
	jt.objValid = false
}

// stepJoint advances one item by one joint FISTA iteration and reports
// whether the item is still active.
func (d *Decoder) stepJoint(ji int, items []*BatchItem, bs *batchScratch) bool {
	jt := &bs.joints[ji]
	st := &items[jt.item].Stats
	n := d.n
	L := jt.L
	step := d.step
	adaptive := d.cfg.Tol > 0
	tol := d.cfg.Tol
	tl := bs.lt[:0]
	pl := bs.lp[:0]
	ml := bs.lm[:0]
	gl := bs.lg[:0]
	for l := 0; l < L; l++ {
		pi := jt.planeBase + l
		tl = append(tl, nStripe(bs.theta, pi, n))
		pl = append(pl, nStripe(bs.prev, pi, n))
		ml = append(ml, nStripe(bs.mom, pi, n))
		gl = append(gl, nStripe(bs.grad, pi, n))
	}
	// Group soft-threshold across leads at each coefficient index, with
	// the prev snapshot fused into the same sweep (elementwise, so the
	// per-element values match the copy-then-threshold order exactly).
	rw := nStripe(bs.rw, jt.planeBase, n)
	lamStep := step * jt.lambda
	weights := d.weights
	if L == 3 {
		// Dominant shape (3-lead joint): hoisting the stripe slices out
		// of the j loop removes the slice-of-slice indirection that
		// otherwise dominates this sweep.
		t0, t1, t2 := tl[0], tl[1], tl[2]
		p0, p1, p2 := pl[0], pl[1], pl[2]
		m0, m1, m2 := ml[0], ml[1], ml[2]
		g0, g1, g2 := gl[0], gl[1], gl[2]
		for j := 0; j < n; j++ {
			p0[j] = t0[j]
			p1[j] = t1[j]
			p2[j] = t2[j]
			v0 := m0[j] - step*g0[j]
			v1 := m1[j] - step*g1[j]
			v2 := m2[j] - step*g2[j]
			t0[j] = v0 // stash pre-threshold value
			t1[j] = v1
			t2[j] = v2
			norm := 0.0
			norm += v0 * v0
			norm += v1 * v1
			norm += v2 * v2
			thr := lamStep * weights[j] * rw[j]
			if thr == 0 {
				continue
			}
			norm = math.Sqrt(norm)
			if norm <= thr {
				t0[j] = 0
				t1[j] = 0
				t2[j] = 0
				continue
			}
			shrink := 1 - thr/norm
			t0[j] = v0 * shrink
			t1[j] = v1 * shrink
			t2[j] = v2 * shrink
		}
	} else {
		for j := 0; j < n; j++ {
			norm := 0.0
			for l := 0; l < L; l++ {
				pl[l][j] = tl[l][j]
				v := ml[l][j] - step*gl[l][j]
				tl[l][j] = v // stash pre-threshold value
				norm += v * v
			}
			thr := lamStep * weights[j] * rw[j]
			if thr == 0 {
				continue
			}
			norm = math.Sqrt(norm)
			if norm <= thr {
				for l := 0; l < L; l++ {
					tl[l][j] = 0
				}
				continue
			}
			shrink := 1 - thr/norm
			for l := 0; l < L; l++ {
				tl[l][j] *= shrink
			}
		}
	}
	// The next momentum θ + β(θ − θprev) depends on tk alone, so the
	// sweep that reads the new iterate writes it. The adaptive sweep
	// also forms the convergence and restart sums, reading the old
	// momentum for the restart test before overwriting it, and a
	// restart then overwrites it with θ; the fixed-budget sweep (Tol
	// == 0) writes the momentum alone and leaves dot at 0.
	tNext := (1 + math.Sqrt(1+4*jt.tk*jt.tk)) / 2
	beta := (jt.tk - 1) / tNext
	var diffSq, normSq, dot float64
	if adaptive {
		for l := 0; l < L; l++ {
			tlv, plv, mlv := tl[l], pl[l], ml[l]
			plv = plv[:len(tlv)]
			mlv = mlv[:len(tlv)]
			for i, tv := range tlv {
				dd := tv - plv[i]
				diffSq += dd * dd
				normSq += tv * tv
				dot += (mlv[i] - tv) * dd
				mlv[i] = tv + beta*dd
			}
		}
	} else {
		for l := 0; l < L; l++ {
			tlv, plv, mlv := tl[l], pl[l], ml[l]
			plv = plv[:len(tlv)]
			mlv = mlv[:len(tlv)]
			for i, tv := range tlv {
				mlv[i] = tv + beta*(tv-plv[i])
			}
		}
	}
	st.Iters++
	restart := dot > 0
	if restart {
		st.Restarts++
	}
	if adaptive && jt.it+1 >= minIters && diffSq <= tol*tol*(normSq+tinyNormSq) {
		obj := d.objectiveItem(jt, bs)
		if jt.objValid && obj >= jt.lastObj*(1-tol) {
			st.EarlyExit = true
			return d.endJointPass(ji, items, bs)
		}
		jt.lastObj, jt.objValid = obj, true
	}
	if restart {
		jt.tk = 1
		for l := 0; l < L; l++ {
			copy(ml[l], tl[l])
		}
	} else {
		jt.tk = tNext
	}
	jt.it++
	if jt.it >= d.cfg.Iters {
		return d.endJointPass(ji, items, bs)
	}
	return true
}

// endJointPass closes one reweighting pass of an item: group-reweight
// and seed the next pass, or finish the item (with warm-divergence
// fallback, per-lead store, rescale and commit).
func (d *Decoder) endJointPass(ji int, items []*BatchItem, bs *batchScratch) bool {
	jt := &bs.joints[ji]
	n := d.n
	if jt.pass < d.cfg.Reweights {
		// Group-level reweighting around the current estimate.
		norms := bs.norms[:n]
		rw := nStripe(bs.rw, jt.planeBase, n)
		peak := 0.0
		for j := 0; j < n; j++ {
			g := 0.0
			for l := 0; l < jt.L; l++ {
				v := bs.theta[(jt.planeBase+l)*n+j]
				g += v * v
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
		jt.pass++
		jt.it = 0
		d.seedJointPass(jt, items, bs)
		return true
	}
	item := items[jt.item]
	if jt.warm && d.divergedItem(jt, bs) {
		item.Stats.ColdFallback = true
		jt.warm = false
		rw := nStripe(bs.rw, jt.planeBase, n)
		for j := range rw {
			rw[j] = 1
		}
		jt.pass = 0
		jt.it = 0
		d.seedJointPass(jt, items, bs)
		return true
	}
	if jt.warm {
		item.Stats.Warm = true
	}
	for l := 0; l < jt.L; l++ {
		pi := jt.planeBase + l
		th := nStripe(bs.theta, pi, n)
		item.Warm.store(l, th)
		out := item.X[l]
		if err := basis.InverseInto(th, levels, out, &bs.sws); err != nil {
			panic("cs: internal synthesis error: " + err.Error())
		}
		gain := bs.gains[pi]
		for i := range out {
			out[i] *= gain
		}
	}
	item.Warm.commit()
	return false
}

// ReconstructJointBatch reconstructs every item with the multi-lead
// group-sparse solver in one structure-of-arrays pass. Per item it is
// bit-identical to a one-item batch — ReconstructJointWarm(item.Y,
// item.Warm) — at every batch size.
func (d *Decoder) ReconstructJointBatch(items []*BatchItem) {
	total := 0
	maxL := 1
	for _, it := range items {
		it.X, it.Err, it.Stats = nil, nil, SolveStats{}
		if len(it.Y) == 0 {
			it.Err = ErrSolver
			continue
		}
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
	if total == 0 {
		return
	}
	bs := d.bpool.Get().(*batchScratch)
	bs.ensure(total, d.n, d.m, len(d.phis), maxL)
	defer d.bpool.Put(bs)
	bs.planes = bs.planes[:0]
	bs.joints = bs.joints[:0]
	for ii, it := range items {
		if it.Err != nil {
			continue
		}
		L := len(it.Y)
		base := len(bs.planes)
		it.X = make([][]float64, L)
		for l, y := range it.Y {
			pi := len(bs.planes)
			it.X[l] = make([]float64, d.n)
			// Unit-RMS normalisation per lead (rescaled by the gain on
			// output).
			rms := 0.0
			for _, v := range y {
				rms += v * v
			}
			rms = math.Sqrt(rms / float64(len(y)))
			if rms == 0 {
				rms = 1
			}
			bs.gains[pi] = rms
			inv := 1 / rms
			ystripe := bs.y[pi*d.m : pi*d.m+d.m]
			for i, v := range y {
				ystripe[i] = v * inv
			}
			bs.planes = append(bs.planes, planeState{phi: d.matrixFor(l), mi: d.matrixIndexFor(l)})
		}
		bs.joints = append(bs.joints, jointState{item: ii, planeBase: base, L: L})
	}
	// One batched back-projection feeds every item's group-λ derivation.
	gp := bs.gradPlanes[:0]
	for pi := range bs.planes {
		gp = append(gp, pi)
	}
	d.applyBatchGroups(bs.y, bs.z, gp, bs, false)
	d.analyzeBatch(bs.z, bs.grad, gp, bs)
	for ji := range bs.joints {
		jt := &bs.joints[ji]
		it := items[jt.item]
		norms := bs.norms[:d.n]
		for j := range norms {
			norms[j] = 0
		}
		for l := 0; l < jt.L; l++ {
			g := nStripe(bs.grad, jt.planeBase+l, d.n)
			for j, v := range g {
				norms[j] += v * v
			}
		}
		groupMax := 0.0
		for _, g := range norms {
			if g > groupMax {
				groupMax = g
			}
		}
		jt.lambda = lambdaRel * math.Sqrt(groupMax)
		it.Warm.prepare(jt.L, d.n)
		jt.warm = it.Warm.seedAll(jt.L, d.n) != nil
		rw := nStripe(bs.rw, jt.planeBase, d.n)
		for j := range rw {
			rw[j] = 1
		}
		d.seedJointPass(jt, items, bs)
	}
	active := bs.active[:0]
	for ji := range bs.joints {
		active = append(active, ji)
	}
	spare := bs.next[:0]
	for len(active) > 0 {
		gp = gp[:0]
		for _, ji := range active {
			jt := &bs.joints[ji]
			for l := 0; l < jt.L; l++ {
				gp = append(gp, jt.planeBase+l)
			}
		}
		d.gradBatch(gp, bs)
		next := spare[:0]
		for _, ji := range active {
			if d.stepJoint(ji, items, bs) {
				next = append(next, ji)
			}
		}
		active, spare = next, active[:0]
	}
}
