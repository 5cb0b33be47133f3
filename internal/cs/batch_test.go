package cs

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"wbsn/internal/ecg"
)

// batchFixture builds a shared matrix, encoder and a multi-lead record
// cut into per-window measurement sets (leads × m) for batch tests.
func batchFixture(t *testing.T, n, windows int, seed int64) (*SparseBinary, [][][]float64) {
	t.Helper()
	m := MeasurementsForCR(n, 65.9)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(phi)
	rec := ecg.Generate(ecg.Config{Seed: seed, Duration: float64(windows*n)/256 + 1})
	meas := make([][][]float64, windows)
	for w := 0; w < windows; w++ {
		leads := make([][]float64, len(rec.Clean))
		for li := range rec.Clean {
			leads[li] = enc.Encode(rec.Clean[li][w*n : (w+1)*n])
		}
		meas[w] = leads
	}
	return phi, meas
}

// expectIdentical compares a batch item against the scalar oracle's
// output and stats bit for bit (scalar_ref_test.go).
func expectIdentical(t *testing.T, label string, it *BatchItem, ref [][]float64, refSt SolveStats, refErr error) {
	t.Helper()
	if (it.Err == nil) != (refErr == nil) {
		t.Fatalf("%s: err = %v, oracle %v", label, it.Err, refErr)
	}
	if it.Err != nil {
		return
	}
	if it.Stats != refSt {
		t.Fatalf("%s: stats = %+v, oracle %+v", label, it.Stats, refSt)
	}
	if len(it.X) != len(ref) {
		t.Fatalf("%s: %d leads, oracle %d", label, len(it.X), len(ref))
	}
	for l := range ref {
		for i := range ref[l] {
			if it.X[l][i] != ref[l][i] {
				t.Fatalf("%s: lead %d sample %d = %v, oracle %v", label, l, i, it.X[l][i], ref[l][i])
			}
		}
	}
}

// TestBatchBitIdentity pins the central contract: for every batch size,
// budget mode (fixed / Tol-adaptive) and seeding (cold / warm across
// two windows), the batched joint solver's outputs and stats equal K
// solves of the frozen scalar oracle bit for bit. K=1 is the path every
// Reconstruct* call and every single-window engine dispatch takes; the
// larger K prove the SoA kernels preserve per-window FP order.
func TestBatchBitIdentity(t *testing.T) {
	const n = 512
	phi, meas := batchFixture(t, n, 2, 21)
	cfgs := []struct {
		name string
		cfg  SolverConfig
	}{
		{"fixed", SolverConfig{Iters: 30, Reweights: 1}},
		{"earlyexit", SolverConfig{Iters: 60, Reweights: 1, Tol: 1e-3}},
	}
	for _, tc := range cfgs {
		dec, err := NewDecoder(phi, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, K := range []int{1, 2, 4, 8} {
			// K independent streams, two windows each: window 0 solves
			// cold, window 1 warm — batched along the stream axis.
			seqOut := make([][][][]float64, K)
			seqSt := make([][]SolveStats, K)
			for s := 0; s < K; s++ {
				ws := NewWarmState()
				for w := 0; w < 2; w++ {
					x, st, err := dec.refReconstructJointWarm(meas[w], ws)
					if err != nil {
						t.Fatal(err)
					}
					seqOut[s] = append(seqOut[s], x)
					seqSt[s] = append(seqSt[s], st)
				}
			}
			states := make([]*WarmState, K)
			for s := range states {
				states[s] = NewWarmState()
			}
			for w := 0; w < 2; w++ {
				items := make([]*BatchItem, K)
				for s := 0; s < K; s++ {
					items[s] = &BatchItem{Y: meas[w], Warm: states[s]}
				}
				dec.ReconstructJointBatch(items)
				for s := 0; s < K; s++ {
					expectIdentical(t, tc.name, items[s], seqOut[s][w], seqSt[s][w], nil)
				}
			}
		}
	}
}

// TestReconstructMatchesOracle pins the one-item wrappers: every
// Reconstruct* entry point is a K=1 joint batch and must return the
// scalar oracle's signals and stats bit for bit — shared and per-lead
// sensing matrices, fixed budget and Tol, cold and warm streams. The
// one-lead forms match the joint oracle on that lead alone:
// Reconstruct[Warm] with lead 0's matrix, and ReconstructLeads lead by
// lead with each lead's matrix at the decoder's step. A K=2 batch over
// the per-lead matrices covers the per-matrix plane grouping.
func TestReconstructMatchesOracle(t *testing.T) {
	const n, windows = 512, 2
	m := MeasurementsForCR(n, 65.9)
	rng := rand.New(rand.NewSource(41))
	phis := make([]Matrix, 3)
	encs := make([]*Encoder, 3)
	for l := range phis {
		p, err := NewSparseBinary(m, n, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		phis[l], encs[l] = p, NewEncoder(p)
	}
	rec := ecg.Generate(ecg.Config{Seed: 41, Duration: float64(windows*n)/256 + 1})
	meas := make([][][]float64, windows)
	for w := range meas {
		meas[w] = make([][]float64, len(rec.Clean))
		for li := range rec.Clean {
			meas[w][li] = encs[li].Encode(rec.Clean[li][w*n : (w+1)*n])
		}
	}
	got := func(xs [][]float64, st SolveStats, err error) *BatchItem {
		return &BatchItem{X: xs, Stats: st, Err: err}
	}
	for _, cfg := range []SolverConfig{{Iters: 20, Reweights: 1}, {Iters: 40, Reweights: 1, Tol: 1e-3}} {
		for _, mats := range [][]Matrix{phis[:1], phis} {
			dec, err := NewJointDecoder(mats, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ws1, wsJ := NewWarmState(), NewWarmState()
			rs1, rsJ := NewWarmState(), NewWarmState()
			for _, ys := range meas {
				x, err := dec.Reconstruct(ys[0])
				refs, refErr := dec.refReconstructJoint(ys[:1])
				expectIdentical(t, "Reconstruct", got([][]float64{x}, SolveStats{}, err), refs, SolveStats{}, refErr)
				x, st, err := dec.ReconstructWarm(ys[0], ws1)
				refs, refSt, refErr := dec.refReconstructJointWarm(ys[:1], rs1)
				expectIdentical(t, "ReconstructWarm", got([][]float64{x}, st, err), refs, refSt, refErr)

				xs, err := dec.ReconstructLeads(ys)
				refs = make([][]float64, len(ys))
				for i := range ys {
					one := *dec
					one.phis = dec.phis[dec.matrixIndexFor(i):][:1]
					ref, err := one.refReconstructJoint(ys[i : i+1])
					if err != nil {
						t.Fatal(err)
					}
					refs[i] = ref[0]
				}
				expectIdentical(t, "ReconstructLeads", got(xs, SolveStats{}, err), refs, SolveStats{}, nil)

				xs, err = dec.ReconstructJoint(ys)
				refs, refErr = dec.refReconstructJoint(ys)
				expectIdentical(t, "ReconstructJoint", got(xs, SolveStats{}, err), refs, SolveStats{}, refErr)
				xs, st, err = dec.ReconstructJointWarm(ys, wsJ)
				refs, refSt, refErr = dec.refReconstructJointWarm(ys, rsJ)
				expectIdentical(t, "ReconstructJointWarm", got(xs, st, err), refs, refSt, refErr)
			}
			items := make([]*BatchItem, len(meas))
			for w := range meas {
				items[w] = &BatchItem{Y: meas[w]}
			}
			dec.ReconstructJointBatch(items)
			for w := range meas {
				refs, refSt, refErr := dec.refReconstructJointWarm(meas[w], nil)
				expectIdentical(t, "per-lead matrix batch", items[w], refs, refSt, refErr)
			}
		}
	}
}

// TestBatchPRDEquivalence states the acceptance bar in signal terms:
// reconstructing K distinct windows in one SoA pass leaves each
// window's PRD within 0.1 percentage points of its scalar-oracle solve.
// Bit identity makes the delta exactly zero today; measuring it end to
// end from real ECG windows catches any future relaxation of the
// contract in the units the paper reports.
func TestBatchPRDEquivalence(t *testing.T) {
	const n, windows = 512, 8
	m := MeasurementsForCR(n, 65.9)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(phi)
	rec := ecg.Generate(ecg.Config{Seed: 33, Duration: float64(windows*n)/256 + 1})
	dec, err := NewDecoder(phi, SolverConfig{Iters: 60, Reweights: 1, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	prd := func(ref, x []float64) float64 {
		var num, den float64
		for i := range ref {
			d := x[i] - ref[i]
			num += d * d
			den += ref[i] * ref[i]
		}
		return 100 * math.Sqrt(num/den)
	}
	for _, K := range []int{1, 2, 4, 8} {
		items := make([]*BatchItem, K)
		ys := make([][][]float64, K)
		for k := 0; k < K; k++ {
			w := k % windows
			leads := make([][]float64, len(rec.Clean))
			for li := range rec.Clean {
				leads[li] = enc.Encode(rec.Clean[li][w*n : (w+1)*n])
			}
			ys[k] = leads
			items[k] = &BatchItem{Y: leads}
		}
		dec.ReconstructJointBatch(items)
		for k, it := range items {
			if it.Err != nil {
				t.Fatal(it.Err)
			}
			w := k % windows
			seqX, _, err := dec.refReconstructJointWarm(ys[k], nil)
			if err != nil {
				t.Fatal(err)
			}
			for li := range it.X {
				clean := rec.Clean[li][w*n : (w+1)*n]
				want := prd(clean, seqX[li])
				got := prd(clean, it.X[li])
				if math.Abs(got-want) > 0.1 {
					t.Errorf("K=%d window %d lead %d: batched PRD %.4f%%, oracle %.4f%%",
						K, w, li, got, want)
				}
			}
		}
	}
}

// TestBatchEarlyExitMasking batches windows that converge at different
// iteration counts and checks each window's stats and signal still
// match its solo scalar-oracle solve — a converged window must drop out
// of the batch without perturbing (or being perturbed by) the
// stragglers.
func TestBatchEarlyExitMasking(t *testing.T) {
	const n = 512
	phi, meas := batchFixture(t, n, 6, 33)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 80, Reweights: 1, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]*BatchItem, len(meas))
	iters := map[int]bool{}
	refs := make([][][]float64, len(meas))
	sts := make([]SolveStats, len(meas))
	for w := range meas {
		items[w] = &BatchItem{Y: meas[w]}
		x, st, err := dec.refReconstructJointWarm(meas[w], nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[w], sts[w] = x, st
		iters[st.Iters] = true
	}
	if len(iters) < 2 {
		t.Fatalf("fixture too uniform: all %d windows converge in the same iteration count", len(meas))
	}
	dec.ReconstructJointBatch(items)
	for w := range items {
		expectIdentical(t, "mask", items[w], refs[w], sts[w], nil)
	}
}

// TestBatchWarmCommitAcrossRecords drives two records through batched
// warm streams with a Reset at the record boundary, checking the warm
// state commits per window and the boundary reset forces the first
// window of record two cold — exactly like the scalar oracle's stream.
func TestBatchWarmCommitAcrossRecords(t *testing.T) {
	const n = 512
	phi, meas := batchFixture(t, n, 4, 55)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 60, Reweights: 1, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle reference: windows 0,1 are record A; 2,3 record B.
	ws := NewWarmState()
	var refs [][][]float64
	var sts []SolveStats
	for w := 0; w < 4; w++ {
		if w == 2 {
			ws.Reset()
		}
		x, st, err := dec.refReconstructJointWarm(meas[w], ws)
		if err != nil {
			t.Fatal(err)
		}
		refs, sts = append(refs, x), append(sts, st)
	}
	// Batched: the stream's windows stay sequential (one per batch, the
	// warm sequencing contract) but share each batch with another
	// independent stream to keep the batch path multi-plane.
	bws := NewWarmState()
	other := NewWarmState()
	for w := 0; w < 4; w++ {
		if w == 2 {
			bws.Reset()
		}
		items := []*BatchItem{
			{Y: meas[w], Warm: bws},
			{Y: meas[(w+1)%4], Warm: other},
		}
		dec.ReconstructJointBatch(items)
		expectIdentical(t, "stream", items[0], refs[w], sts[w], nil)
		if w == 0 || w == 2 {
			if items[0].Stats.Warm {
				t.Fatalf("window %d: expected cold solve after boundary", w)
			}
		} else if !items[0].Stats.Warm {
			t.Fatalf("window %d: warm seed not used", w)
		}
	}
}

// TestBatchColdFallback poisons one item's warm state inside a batch
// and checks that item re-solves cold (bit-identical to the scalar
// oracle's cold solve) while its batchmates are untouched.
func TestBatchColdFallback(t *testing.T) {
	const n = 512
	phi, meas := batchFixture(t, n, 2, 61)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 3, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	poison := func(leads int) *WarmState {
		ws := NewWarmState()
		ws.prepare(leads, n)
		bad := make([]float64, n)
		for i := range bad {
			bad[i] = 1e12
		}
		for l := 0; l < leads; l++ {
			ws.store(l, bad)
		}
		ws.commit()
		return ws
	}
	solveSeq := func(y [][]float64, ws *WarmState) ([][]float64, SolveStats) {
		x, st, err := dec.refReconstructJointWarm(y, ws)
		if err != nil {
			t.Fatal(err)
		}
		return x, st
	}
	coldX, _ := solveSeq(meas[0], nil)
	refPoisonX, refPoisonSt := solveSeq(meas[0], poison(len(meas[0])))
	cleanX, cleanSt := solveSeq(meas[1], nil)
	items := []*BatchItem{
		{Y: meas[0], Warm: poison(len(meas[0]))},
		{Y: meas[1]},
	}
	dec.ReconstructJointBatch(items)
	if !items[0].Stats.ColdFallback {
		t.Fatal("poisoned warm seed did not trigger the batched cold fallback")
	}
	if items[0].Stats.Warm {
		t.Error("fallback item still flagged warm")
	}
	expectIdentical(t, "fallback", items[0], refPoisonX, refPoisonSt, nil)
	for l := range coldX {
		for i := range coldX[l] {
			if items[0].X[l][i] != coldX[l][i] {
				t.Fatalf("fallback output differs from cold at lead %d sample %d", l, i)
			}
		}
	}
	expectIdentical(t, "batchmate", items[1], cleanX, cleanSt, nil)
}

// TestBatchRejectsMalformedItems checks a geometry-mismatched item gets
// ErrSolver while the rest of the batch still solves, bit-identically to
// the scalar oracle.
func TestBatchRejectsMalformedItems(t *testing.T) {
	const n = 512
	phi, meas := batchFixture(t, n, 1, 71)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	ref, refSt, err := dec.refReconstructJointWarm(meas[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	items := []*BatchItem{
		{Y: [][]float64{make([]float64, 7)}},
		{Y: meas[0]},
		{},
	}
	dec.ReconstructJointBatch(items)
	if items[0].Err != ErrSolver || items[2].Err != ErrSolver {
		t.Fatalf("malformed items: err = %v, %v, want ErrSolver", items[0].Err, items[2].Err)
	}
	expectIdentical(t, "survivor", items[1], ref, refSt, nil)
}

// TestBatchKernelsMatchScalar pins the bit-identity of the batched
// sensing-matrix kernels against Apply/ApplyT, comparing IEEE-754 bit
// patterns so a signed zero counts, for 1 to 7 planes: full 3-plane
// tiles and both remainder lengths. ±0 signal and residual entries are
// included.
func TestBatchKernelsMatchScalar(t *testing.T) {
	const n = 256
	m := MeasurementsForCR(n, 65.9)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(81)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(82))
	// draw returns a normal deviate, or exactly +0 or −0 a quarter of
	// the time.
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		default:
			return rng.NormFloat64()
		}
	}
	for P := 1; P <= 7; P++ {
		x := make([]float64, P*n)
		r := make([]float64, P*m)
		for i := range x {
			x[i] = draw()
		}
		for i := range r {
			r[i] = draw()
		}
		planes := make([]int, P)
		for p := range planes {
			planes[p] = p
		}
		y := make([]float64, P*m)
		z := make([]float64, P*n)
		phi.applyBatch(x, n, y, m, planes)
		phi.applyTBatch(r, m, z, n, planes)
		for p := 0; p < P; p++ {
			yRef := make([]float64, m)
			zRef := make([]float64, n)
			phi.Apply(x[p*n:(p+1)*n], yRef)
			phi.ApplyT(r[p*m:(p+1)*m], zRef)
			for i := range yRef {
				if math.Float64bits(y[p*m+i]) != math.Float64bits(yRef[i]) {
					t.Fatalf("P=%d plane %d: applyBatch[%d] = %v, scalar %v", P, p, i, y[p*m+i], yRef[i])
				}
			}
			for i := range zRef {
				if math.Float64bits(z[p*n+i]) != math.Float64bits(zRef[i]) {
					t.Fatalf("P=%d plane %d: applyTBatch[%d] = %v, scalar %v", P, p, i, z[p*n+i], zRef[i])
				}
			}
		}
	}
}

// TestBatchRaceHammer hammers one shared decoder with concurrent
// batched reconstructions (the engine-worker shape) and checks outputs
// stay bit-identical to the serial reference.
func TestBatchRaceHammer(t *testing.T) {
	const n = 512
	phi, meas := batchFixture(t, n, 4, 91)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 12, Reweights: 1, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([][][]float64, len(meas))
	for w := range meas {
		x, _, err := dec.ReconstructJointWarm(meas[w], nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[w] = x
	}
	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := dec
			if g%2 == 1 {
				d = dec.Clone()
			}
			for round := 0; round < rounds; round++ {
				items := make([]*BatchItem, len(meas))
				for w := range meas {
					items[w] = &BatchItem{Y: meas[w]}
				}
				d.ReconstructJointBatch(items)
				for w, it := range items {
					if it.Err != nil {
						errs <- it.Err.Error()
						return
					}
					for l := range refs[w] {
						for i := range refs[w][l] {
							if it.X[l][i] != refs[w][l][i] {
								errs <- "bit mismatch under concurrency"
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
