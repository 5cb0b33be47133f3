package cs

import (
	"math/rand"
	"sync"
	"testing"

	"wbsn/internal/ecg"
)

// buildTestDecoder returns a decoder plus an encoded ECG window.
func buildTestDecoder(t testing.TB, iters, reweights int) (*Decoder, []float64, [][]float64) {
	t.Helper()
	rec := ecg.Generate(ecg.Config{Seed: 31, Duration: 4})
	m := MeasurementsForCR(512, 65.9)
	phi, err := NewSparseBinary(m, 512, 4, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(phi, SolverConfig{Iters: iters, Reweights: reweights})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(phi)
	y := enc.Encode(rec.Clean[0][:512])
	ys := make([][]float64, 3)
	for l := range ys {
		ys[l] = enc.Encode(rec.Clean[l][:512])
	}
	return dec, y, ys
}

// Reconstruction must be a pure function of the measurements: repeated
// calls through the pooled scratch path must agree bit for bit, and so
// must calls racing on one decoder from many goroutines. This is the
// determinism contract the parallel gateway engine depends on.
func TestReconstructDeterministicUnderConcurrency(t *testing.T) {
	dec, y, ys := buildTestDecoder(t, 40, 1)
	ref, err := dec.Reconstruct(y)
	if err != nil {
		t.Fatal(err)
	}
	refJoint, err := dec.ReconstructJoint(ys)
	if err != nil {
		t.Fatal(err)
	}
	refTree, err := dec.TreeIHT(y, levels, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := dec.Reconstruct(y)
				if err != nil {
					errs <- err
					return
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Errorf("worker %d rep %d: Reconstruct[%d] = %g, want %g", w, rep, i, got[i], ref[i])
						return
					}
				}
				gotJ, err := dec.ReconstructJoint(ys)
				if err != nil {
					errs <- err
					return
				}
				for l := range refJoint {
					for i := range refJoint[l] {
						if gotJ[l][i] != refJoint[l][i] {
							t.Errorf("worker %d rep %d: Joint[%d][%d] differs", w, rep, l, i)
							return
						}
					}
				}
				gotT, err := dec.TreeIHT(y, levels, 60, 40)
				if err != nil {
					errs <- err
					return
				}
				for i := range refTree {
					if gotT[i] != refTree[i] {
						t.Errorf("worker %d rep %d: TreeIHT[%d] differs", w, rep, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Clones must reconstruct identically to their source: they share the
// sensing matrices and every derived constant.
func TestCloneReconstructsIdentically(t *testing.T) {
	dec, y, ys := buildTestDecoder(t, 40, 1)
	clone := dec.Clone()
	a, err := dec.Reconstruct(y)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clone.Reconstruct(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone Reconstruct[%d] = %g, want %g", i, b[i], a[i])
		}
	}
	aj, err := dec.ReconstructJoint(ys)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := clone.ReconstructJoint(ys)
	if err != nil {
		t.Fatal(err)
	}
	for l := range aj {
		for i := range aj[l] {
			if aj[l][i] != bj[l][i] {
				t.Fatalf("clone Joint[%d][%d] differs", l, i)
			}
		}
	}
}

// Steady-state Reconstruct must stay at or under 2 allocs per call (the
// returned signal plus pool bookkeeping) — the PR's allocation-discipline
// acceptance bar. A small slack absorbs GC-emptied pools mid-run.
func TestReconstructSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are meaningless")
	}
	dec, y, ys := buildTestDecoder(t, 15, 0)
	if _, err := dec.Reconstruct(y); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := dec.Reconstruct(y); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Reconstruct steady state: %.2f allocs/op, want <= 2", allocs)
	}
	if _, err := dec.ReconstructJoint(ys); err != nil {
		t.Fatal(err)
	}
	jallocs := testing.AllocsPerRun(20, func() {
		if _, err := dec.ReconstructJoint(ys); err != nil {
			t.Fatal(err)
		}
	})
	// Joint returns L+1 fresh slices; everything else must be pooled.
	if jallocs > float64(len(ys))+2 {
		t.Errorf("ReconstructJoint steady state: %.2f allocs/op, want <= %d", jallocs, len(ys)+2)
	}
}
