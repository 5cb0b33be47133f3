package cs

import (
	"math/rand"
	"sync"
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

// streamWindows cuts a record's lead-0 samples into consecutive
// n-sample windows and encodes each one.
func streamWindows(rec *ecg.Record, enc *Encoder, n, count int) (raw [][]float64, meas [][]float64) {
	for w := 0; w < count; w++ {
		x := rec.Clean[0][w*n : (w+1)*n]
		raw = append(raw, x)
		meas = append(meas, enc.Encode(x))
	}
	return raw, meas
}

// TestSolverEarlyExitAccuracy is the convergence table test: across
// clean, noisy, and AF records, the Tol-driven warm solver must spend
// fewer iterations than the fixed budget while staying within 1% PRD of
// the fixed-200-iteration cold baseline.
func TestSolverEarlyExitAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window solver sweep")
	}
	const n, windows = 512, 8
	m := MeasurementsForCR(n, 65.9)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(phi)
	base, err := NewDecoder(phi, SolverConfig{Iters: 200, Reweights: 1})
	if err != nil {
		t.Fatal(err)
	}
	adapt, err := NewDecoder(phi, SolverConfig{Iters: 200, Reweights: 1, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  ecg.Config
	}{
		{"clean", ecg.Config{Seed: 41, Duration: 20}},
		{"noisy", ecg.Config{Seed: 42, Duration: 20, Noise: ecg.NoiseConfig{EMG: 0.04, BaselineWander: 0.2}}},
		{"af", ecg.Config{Seed: 43, Duration: 20, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := ecg.Generate(tc.cfg)
			raw, meas := streamWindows(rec, enc, n, windows)
			ws := NewWarmState()
			budget := 200 * 2 // Iters per pass × (1 + Reweights)
			totalIters, earlyExits := 0, 0
			for w := 0; w < windows; w++ {
				ref, err := base.Reconstruct(meas[w])
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := adapt.ReconstructWarm(meas[w], ws)
				if err != nil {
					t.Fatal(err)
				}
				if st.ColdFallback {
					t.Errorf("window %d: unexpected cold fallback", w)
				}
				if w > 0 && !st.Warm {
					t.Errorf("window %d: warm seed not used", w)
				}
				totalIters += st.Iters
				if st.EarlyExit {
					earlyExits++
				}
				basePRD := dsp.PRD(raw[w], ref)
				gotPRD := dsp.PRD(raw[w], got)
				if gotPRD > basePRD*1.01+0.05 {
					t.Errorf("window %d: PRD %.3f%% vs baseline %.3f%% (>1%% worse)", w, gotPRD, basePRD)
				}
			}
			meanIters := float64(totalIters) / float64(windows)
			if meanIters >= float64(budget) {
				t.Errorf("mean iterations %.0f did not beat the fixed budget %d", meanIters, budget)
			}
			if earlyExits == 0 {
				t.Error("early exit never triggered across the stream")
			}
			t.Logf("%s: mean iters %.0f of %d budget, %d/%d windows early-exited",
				tc.name, meanIters, budget, earlyExits, windows)
		})
	}
}

// TestWarmResetPreventsCrossSeeding pins the stream-isolation contract
// at the solver level: after Reset, a decode must be bit-identical to a
// cold decode — no trace of the previous stream's coefficients.
func TestWarmResetPreventsCrossSeeding(t *testing.T) {
	const n = 512
	m := MeasurementsForCR(n, 65.9)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 60, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	recA := ecg.Generate(ecg.Config{Seed: 51, Duration: 6})
	recB := ecg.Generate(ecg.Config{Seed: 52, Duration: 6, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	yB := enc.Encode(recB.Clean[0][:n])

	cold, stCold, err := dec.ReconstructWarm(yB, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWarmState()
	for w := 0; w < 3; w++ { // absorb patient A's morphology
		if _, _, err := dec.ReconstructWarm(enc.Encode(recA.Clean[0][w*n:(w+1)*n]), ws); err != nil {
			t.Fatal(err)
		}
	}
	if !ws.valid {
		t.Fatal("warm state should be valid after solves")
	}
	ws.Reset()
	if ws.valid {
		t.Fatal("Reset did not invalidate the warm state")
	}
	got, st, err := dec.ReconstructWarm(yB, ws)
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm {
		t.Error("solve after Reset still reported a warm seed")
	}
	if st.Iters != stCold.Iters {
		t.Errorf("post-Reset solve ran %d iters, cold ran %d", st.Iters, stCold.Iters)
	}
	for i := range cold {
		if got[i] != cold[i] {
			t.Fatalf("post-Reset decode differs from cold at %d: %g vs %g", i, got[i], cold[i])
		}
	}

	// Without Reset the seed must actually flow (the isolation test
	// would pass vacuously if warm state never engaged).
	for w := 0; w < 3; w++ {
		if _, _, err := dec.ReconstructWarm(enc.Encode(recA.Clean[0][w*n:(w+1)*n]), ws); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err = dec.ReconstructWarm(yB, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Warm {
		t.Error("warm seed did not engage without Reset")
	}
}

// TestWarmColdFallback forces a poisoned seed (huge coefficients, tiny
// budget) and checks the solver notices the divergence, re-solves cold,
// and returns exactly the cold answer.
func TestWarmColdFallback(t *testing.T) {
	const n = 512
	m := MeasurementsForCR(n, 65.9)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 3, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	rec := ecg.Generate(ecg.Config{Seed: 61, Duration: 4})
	y := enc.Encode(rec.Clean[0][:n])
	cold, _, err := dec.ReconstructWarm(y, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWarmState()
	ws.prepare(1, n)
	poison := make([]float64, n)
	for i := range poison {
		poison[i] = 1e12
	}
	ws.store(0, poison)
	ws.commit()
	got, st, err := dec.ReconstructWarm(y, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ColdFallback {
		t.Fatal("poisoned warm seed did not trigger the cold fallback")
	}
	if st.Warm {
		t.Error("fallback solve still flagged as warm")
	}
	for i := range cold {
		if got[i] != cold[i] {
			t.Fatalf("fallback output differs from cold at %d", i)
		}
	}
	// The fallback's result replaces the poison: next solve is warm again.
	_, st, err = dec.ReconstructWarm(y, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Warm || st.ColdFallback {
		t.Errorf("state after fallback: warm=%v fallback=%v, want warm clean solve", st.Warm, st.ColdFallback)
	}
}

// TestWarmStateShape covers the nil-safety and reshaping contract.
func TestWarmStateShape(t *testing.T) {
	var nilWS *WarmState
	nilWS.Reset() // must not panic
	nilWS.prepare(2, 64)
	nilWS.store(0, make([]float64, 64))
	nilWS.commit()
	if nilWS.seed(0, 64) != nil || nilWS.seedAll(1, 64) != nil {
		t.Error("nil WarmState must stay cold")
	}
	ws := NewWarmState()
	ws.prepare(2, 64)
	ws.store(0, make([]float64, 64))
	ws.store(1, make([]float64, 64))
	ws.commit()
	if !ws.valid || len(ws.theta) != 2 {
		t.Fatal("state should be valid for 2×64")
	}
	if ws.seed(0, 64) == nil || ws.seed(2, 64) != nil || ws.seed(0, 128) != nil {
		t.Error("seed shape checks wrong")
	}
	if ws.seedAll(2, 64) == nil || ws.seedAll(1, 64) != nil {
		t.Error("seedAll shape checks wrong")
	}
	ws.prepare(3, 64) // lead-count growth invalidates
	if ws.valid {
		t.Error("lead growth must invalidate")
	}
	ws.commit()
	ws.prepare(3, 128) // length change invalidates and reshapes
	if ws.valid || len(ws.theta) != 3 || len(ws.theta[0]) != 128 {
		t.Error("length change must invalidate and reshape")
	}
}

// TestReconstructWarmRaceHammer checks the engine-shaped usage: cloned
// decoders on separate goroutines, each streaming its own windows with
// its own WarmState, must reproduce the serial reference bit for bit.
func TestReconstructWarmRaceHammer(t *testing.T) {
	const n, windows = 512, 4
	m := MeasurementsForCR(n, 65.9)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 40, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	rec := ecg.Generate(ecg.Config{Seed: 71, Duration: 10})
	_, meas := streamWindows(rec, enc, n, windows)
	refWS := NewWarmState()
	refs := make([][]float64, windows)
	for w := range meas {
		x, _, err := dec.ReconstructWarm(meas[w], refWS)
		if err != nil {
			t.Fatal(err)
		}
		refs[w] = x
	}
	workers := 8
	if raceEnabled {
		workers = 4
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := dec.Clone()
			ws := NewWarmState()
			for rep := 0; rep < 2; rep++ {
				ws.Reset()
				for w := range meas {
					x, _, err := d.ReconstructWarm(meas[w], ws)
					if err != nil {
						t.Errorf("worker %d: %v", g, err)
						return
					}
					for i := range x {
						if x[i] != refs[w][i] {
							t.Errorf("worker %d window %d sample %d: %g != %g", g, w, i, x[i], refs[w][i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReconstructWarmAllocs pins the warm path's steady-state
// allocation budget: only the returned signal may allocate.
func TestReconstructWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	dec, y, ys := buildTestDecoder(t, 30, 0)
	adapt := dec // same matrices; enable tol via a second decoder
	ws := NewWarmState()
	if _, _, err := adapt.ReconstructWarm(y, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := adapt.ReconstructWarm(y, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("ReconstructWarm steady state allocates %.0f, want <= 2", allocs)
	}
	wsj := NewWarmState()
	if _, _, err := adapt.ReconstructJointWarm(ys, wsj); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if _, _, err := adapt.ReconstructJointWarm(ys, wsj); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(len(ys)+2) {
		t.Errorf("ReconstructJointWarm steady state allocates %.0f, want <= %d", allocs, len(ys)+2)
	}
}

// benchWindowStream encodes eight consecutive 512-sample windows of one
// lead — the contiguous stream a gateway receiver actually decodes, and
// the workload where warm-starting pays off (window k seeds window k+1).
func benchWindowStream(b *testing.B, seed int64) (phi Matrix, ys [][]float64) {
	b.Helper()
	const n, windows = 512, 8
	rec := ecg.Generate(ecg.Config{Seed: seed, Duration: float64(windows*n)/256 + 2})
	m := MeasurementsForCR(n, 65.9)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoder(phi)
	ys = make([][]float64, windows)
	for w := range ys {
		ys[w] = enc.Encode(rec.Clean[0][w*n : (w+1)*n])
	}
	return phi, ys
}

// BenchmarkFISTAWarmVsCold isolates the two adaptive-solver levers on
// the same window stream: the fixed-budget baseline, the convergence
// early exit alone (cold seeds), and early exit plus warm-starting.
func BenchmarkFISTAWarmVsCold(b *testing.B) {
	phi, ys := benchWindowStream(b, 9)
	variants := []struct {
		name string
		cfg  SolverConfig
		warm bool
	}{
		{"cold-fixed", SolverConfig{Iters: 150}, false},
		{"tol-only", SolverConfig{Iters: 150, Tol: 1e-3}, false},
		{"warm+tol", SolverConfig{Iters: 150, Tol: 1e-3}, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			dec, err := NewDecoder(phi, v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			var ws *WarmState
			if v.warm {
				ws = NewWarmState()
			}
			var iters int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := dec.ReconstructWarm(ys[i%len(ys)], ws)
				if err != nil {
					b.Fatal(err)
				}
				iters += st.Iters
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/solve")
		})
	}
}
