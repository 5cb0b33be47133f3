package cs

import (
	"math"
	"math/rand"
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/wavelet"
)

// This file implements the connected-tree recovery model of ref [17]
// (Duarte, Wakin, Baraniuk, SPARS'05), which Section IV.A describes:
// "wavelet coefficients are naturally organized into a tree structure,
// and the largest coefficients cluster along the branches of this tree.
// A CS reconstruction algorithm based on the connected tree model has
// been proposed in [17]."
//
// TreeIHT is a model-based iterative hard thresholding:
// the gradient step is followed by a projection onto
// rooted-connected-tree supports — a child detail coefficient survives
// only if its parent at the next coarser scale survives — which encodes
// the persistence of ECG wave edges across scales. No program runs it;
// BenchmarkAblationSolverVariants compares it with FISTA.

// treeStructure precomputes the parent index of every pyramid-ordered
// coefficient (approximation coefficients are roots with parent -1).
func treeStructure(n, levels int) ([]int, error) {
	if levels < 1 || n == 0 || n%(1<<uint(levels)) != 0 {
		return nil, ErrSolver
	}
	parent := make([]int, n)
	// Pyramid order: the approximation band [0, alen), then the detail
	// bands d_L, d_{L-1}, ..., d_1, the band starting at lo spanning
	// [lo, 2·lo). The coarsest details attach one-to-one to the
	// approximation band; a finer detail coefficient's parent is the
	// coefficient at half its in-band offset in the next coarser band.
	alen := n >> uint(levels)
	for i := 0; i < alen; i++ {
		parent[i] = -1
		parent[alen+i] = i
	}
	for lo := 2 * alen; lo < n; lo *= 2 {
		for i := lo; i < 2*lo; i++ {
			parent[i] = lo/2 + (i-lo)/2
		}
	}
	return parent, nil
}

// solverScratch holds every intermediate buffer of one TreeIHT
// reconstruction. Each call builds its own, so one Decoder may run
// TreeIHT from many goroutines at once. (FISTA draws its buffers from
// the decoder's batch pool, batchScratch.)
type solverScratch struct {
	x    []float64 // n — signal-domain work vector
	ax   []float64 // m — measurement-domain work vector
	z    []float64 // n — back-projection work vector
	grad []float64 // n — current gradient

	theta []float64 // n — iterate

	ws     wavelet.Scratch // DWT ping-pong buffers
	levels int             // DWT depth of the tree

	gS      []float64 // n — support-restricted gradient
	kept    []bool    // n — tree-projection membership
	support []bool    // n — debias support
}

func newSolverScratch(n, m, levels int) *solverScratch {
	return &solverScratch{
		levels:  levels,
		x:       make([]float64, n),
		ax:      make([]float64, m),
		z:       make([]float64, n),
		grad:    make([]float64, n),
		theta:   make([]float64, n),
		gS:      make([]float64, n),
		kept:    make([]bool, n),
		support: make([]bool, n),
	}
}

func TestTreeStructure(t *testing.T) {
	parent, err := treeStructure(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: approx [0,8), d3 [8,16), d2 [16,32), d1 [32,64).
	for i := 0; i < 8; i++ {
		if parent[i] != -1 {
			t.Errorf("approx coefficient %d has parent %d", i, parent[i])
		}
	}
	// d3 attaches one-to-one to the approximation band.
	for i := 8; i < 16; i++ {
		if parent[i] != i-8 {
			t.Errorf("d3[%d] parent = %d, want %d", i, parent[i], i-8)
		}
	}
	// d2[k] -> d3[k/2].
	for i := 16; i < 32; i++ {
		want := 8 + (i-16)/2
		if parent[i] != want {
			t.Errorf("d2[%d] parent = %d, want %d", i, parent[i], want)
		}
	}
	// d1[k] -> d2[k/2].
	for i := 32; i < 64; i++ {
		want := 16 + (i-32)/2
		if parent[i] != want {
			t.Errorf("d1[%d] parent = %d, want %d", i, parent[i], want)
		}
	}
	if _, err := treeStructure(100, 3); err == nil {
		t.Error("bad length should fail")
	}
}

func TestProjectTreeRespectsStructure(t *testing.T) {
	n, levels := 64, 3
	parent, _ := treeStructure(n, levels)
	alen := n >> uint(levels)
	theta := make([]float64, n)
	// A child with a huge value whose parent chain is zero: the parent
	// has magnitude 0, so under a tight budget the child must be dropped
	// unless its parent is kept first.
	theta[40] = 100 // d1 band, parent 16+(40-32)/2 = 20, grandparent 8+(20-16)/2=10
	projectTree(theta, parent, alen, 1, make([]bool, n))
	if theta[40] != 0 {
		t.Error("orphan child with zero parent should be dropped at budget 1")
	}
	// With parent and grandparent carrying weight, the chain survives.
	theta = make([]float64, n)
	theta[10] = 5 // d3
	theta[20] = 4 // d2, parent 10
	theta[40] = 3 // d1, parent 20
	projectTree(theta, parent, alen, 3, make([]bool, n))
	if theta[10] == 0 || theta[20] == 0 || theta[40] == 0 {
		t.Errorf("connected chain should survive: %v %v %v", theta[10], theta[20], theta[40])
	}
}

func TestTreeIHTReconstructsTreeSparseSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, levels := 256, 4
	w := wavelet.Daubechies8()
	parent, _ := treeStructure(n, levels)
	alen := n >> uint(levels)
	// Build a tree-sparse coefficient vector: a few rooted chains.
	theta := make([]float64, n)
	for i := 0; i < alen; i++ {
		theta[i] = rng.NormFloat64()
	}
	// Three chains down from d4.
	detail := 0
	for c := 0; c < 3; c++ {
		i := alen + rng.Intn(alen) // coarsest detail band
		for i >= 0 && i < n {
			if theta[i] == 0 {
				theta[i] = 2 * rng.NormFloat64()
				detail++
			}
			// Descend to a child: find some j with parent[j] == i.
			child := -1
			for j := alen; j < n; j++ {
				if parent[j] == i && theta[j] == 0 {
					child = j
					break
				}
			}
			i = child
		}
	}
	x, err := inverseDWT(w, theta, levels)
	if err != nil {
		t.Fatal(err)
	}
	m := 100
	phi, _ := NewGaussian(m, n, rng)
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := dec.TreeIHT(enc.Encode(x), levels, detail+10, 400)
	if err != nil {
		t.Fatal(err)
	}
	if snr := dsp.SNRdB(x, xhat); snr < 15 {
		t.Errorf("TreeIHT on tree-sparse signal: %.1f dB, want >= 15", snr)
	}
}

func TestTreeIHTValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	phi, _ := NewSparseBinary(64, 256, 4, rng)
	dec, _ := NewDecoder(phi, SolverConfig{})
	if _, err := dec.TreeIHT(make([]float64, 10), levels, 5, 10); err != ErrSolver {
		t.Error("bad measurement length should fail")
	}
	if _, err := dec.TreeIHT(make([]float64, 64), levels, 0, 10); err != ErrSolver {
		t.Error("zero budget should fail")
	}
	if _, err := dec.TreeIHT(make([]float64, 64), levels, 5, 0); err != ErrSolver {
		t.Error("zero iterations should fail")
	}
}

func TestQuickSelect(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if v := quickSelect(append([]float64(nil), xs...), 1); v != 9 {
		t.Errorf("1st largest = %v", v)
	}
	if v := quickSelect(append([]float64(nil), xs...), 3); v != 5 {
		t.Errorf("3rd largest = %v", v)
	}
	if v := quickSelect(append([]float64(nil), xs...), 5); v != 1 {
		t.Errorf("5th largest = %v", v)
	}
	if !math.IsInf(quickSelect(xs, 0), 1) {
		t.Error("k=0 should be +Inf")
	}
	if !math.IsInf(quickSelect(xs, 9), -1) {
		t.Error("k>len should be -Inf")
	}
}

// The connected-tree IHT solver below (ref [17]) is not run by any
// program; BenchmarkAblationSolverVariants compares it with FISTA.

// synthInto is synth writing into out, drawing DWT intermediates from s.
func (d *Decoder) synthInto(theta, out []float64, s *solverScratch) {
	if err := basis.InverseInto(theta, s.levels, out, &s.ws); err != nil {
		panic("cs: internal synthesis error: " + err.Error())
	}
}

// analyzeInto is analyze writing into out, drawing DWT intermediates
// from s.
func (d *Decoder) analyzeInto(x, out []float64, s *solverScratch) {
	if err := basis.ForwardInto(x, s.levels, out, &s.ws); err != nil {
		panic("cs: internal analysis error: " + err.Error())
	}
}

// gradInto computes ∇f(θ) = Ψᵀ Φᵀ(Φ Ψ θ − y) into dst for the given lead
// matrix. It clobbers s.x, s.ax and s.z; dst must not alias them.
func (d *Decoder) gradInto(phi Matrix, theta, y, dst []float64, s *solverScratch) {
	d.synthInto(theta, s.x, s)
	phi.Apply(s.x, s.ax)
	for i := range s.ax {
		s.ax[i] -= y[i]
	}
	phi.ApplyT(s.ax, s.z)
	d.analyzeInto(s.z, dst, s)
}

// projectTree keeps the approximation band plus the best k detail
// coefficients subject to the rooted-tree constraint, zeroing the rest
// of theta in place. Selection is iterative greedy: at each step the
// largest-magnitude coefficient whose parent is already kept joins the
// support — the standard greedy approximation of the (harder) exact
// tree projection used in model-based CS practice. kept is caller-owned
// scratch of len(theta).
func projectTree(theta []float64, parent []int, alen, k int, kept []bool) {
	n := len(theta)
	for i := 0; i < alen; i++ {
		kept[i] = true // roots always survive
	}
	for i := alen; i < n; i++ {
		kept[i] = false
	}
	if k >= n-alen {
		return // everything admissible fits
	}
	for budget := k; budget > 0; budget-- {
		best, bestMag := -1, 0.0
		for i := alen; i < n; i++ {
			if kept[i] || !kept[parent[i]] {
				continue
			}
			if m := math.Abs(theta[i]); m > bestMag {
				bestMag, best = m, i
			}
		}
		if best < 0 || bestMag == 0 {
			break
		}
		kept[best] = true
	}
	for i := alen; i < n; i++ {
		if !kept[i] {
			theta[i] = 0
		}
	}
}

// quickSelect returns the k-th largest value of xs (destructive).
func quickSelect(xs []float64, k int) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	if k > len(xs) {
		return math.Inf(-1)
	}
	lo, hi := 0, len(xs)-1
	target := k - 1 // index in descending order
	for {
		if lo >= hi {
			return xs[lo]
		}
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] > pivot {
				i++
			}
			for xs[j] < pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			return xs[target]
		}
	}
}

// TreeIHT reconstructs a window from measurements with model-based
// iterative hard thresholding over the rooted wavelet tree of a
// levels-deep DWT: k is the detail-coefficient budget (the
// approximation band is always kept).
// The step size is 1/L with L the decoder's Lipschitz estimate. Each
// call builds its tree table and iteration state.
func (d *Decoder) TreeIHT(y []float64, levels, k, iters int) ([]float64, error) {
	if len(y) != d.m {
		return nil, ErrSolver
	}
	if k <= 0 || iters <= 0 {
		return nil, ErrSolver
	}
	parent, err := treeStructure(d.n, levels)
	if err != nil {
		return nil, err
	}
	s := newSolverScratch(d.n, d.m, levels)
	alen := d.n >> uint(levels)
	phi := d.phis[0]
	theta := s.theta
	for i := range theta {
		theta[i] = 0
	}
	for it := 0; it < iters; it++ {
		d.gradInto(phi, theta, y, s.grad, s)
		// Normalized-IHT step (Blumensath-Davies): the optimal step for
		// the gradient restricted to the current support,
		// ||g_S||² / ||A g_S||², which keeps the iteration stable without
		// a global Lipschitz bound. On the first iteration (empty
		// support) the unrestricted gradient is used.
		gS := s.gS
		restricted := false
		for i := range theta {
			if theta[i] != 0 || i < alen {
				gS[i] = s.grad[i]
				restricted = true
			} else {
				gS[i] = 0
			}
		}
		if !restricted {
			copy(gS, s.grad)
		}
		d.synthInto(gS, s.x, s)
		phi.Apply(s.x, s.ax)
		var num, den float64
		for _, v := range gS {
			num += v * v
		}
		for _, v := range s.ax {
			den += v * v
		}
		step := d.step
		if den > 0 && num > 0 {
			step = num / den
		}
		for i := range theta {
			theta[i] -= step * s.grad[i]
		}
		projectTree(theta, parent, alen, k, s.kept)
	}
	// Debias: least squares restricted to the final support (gradient
	// descent with the NIHT step keeps it matrix-free).
	support := s.support
	for i := range theta {
		support[i] = theta[i] != 0 || i < alen
	}
	for it := 0; it < 60; it++ {
		d.gradInto(phi, theta, y, s.grad, s)
		for i := range s.grad {
			if !support[i] {
				s.grad[i] = 0
			}
		}
		d.synthInto(s.grad, s.x, s)
		phi.Apply(s.x, s.ax)
		var num, den float64
		for _, v := range s.grad {
			num += v * v
		}
		for _, v := range s.ax {
			den += v * v
		}
		if den == 0 || num == 0 {
			break
		}
		step := num / den
		for i := range theta {
			theta[i] -= step * s.grad[i]
		}
	}
	out := make([]float64, d.n)
	d.synthInto(theta, out, s)
	return out, nil
}
