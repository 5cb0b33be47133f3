// Package wbsn_test hosts the experiment benchmarks: one per table or
// figure of the paper's evaluation (Section V), micro-benchmarks of the
// kernels the programs run, and the engine and fleet benchmarks. The
// benchmarks regenerate the paper's rows/series and publish the headline
// values as custom metrics (b.ReportMetric), so `go test -bench=.
// -benchmem` reproduces the evaluation. The ablations of DESIGN.md §5
// live beside the code they ablate, in each package's tests
// (`go test -run '^$' -bench Ablation ./...`).
package wbsn_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"wbsn/internal/af"
	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/fixedpt"
	"wbsn/internal/fleet"
	"wbsn/internal/gateway"
	"wbsn/internal/morpho"
	"wbsn/internal/telemetry"
	"wbsn/internal/wavelet"
	"wbsn/internal/wbsn"
)

// ---------------------------------------------------------------------
// Figure 5 — averaged output SNR vs compression ratio, single-lead vs
// multi-lead CS. Reports the 20 dB crossings (paper: 65.9 / 72.7).
// ---------------------------------------------------------------------

func BenchmarkFig5SNRvsCR(b *testing.B) {
	records := ecg.GenerateSet(ecg.Config{Duration: 15}, 42, 2)
	cfg := cs.SweepConfig{
		MaxWindowsPerRecord: 2,
		Seed:                42,
		Solver:              cs.SolverConfig{Iters: 120, Reweights: 2},
	}
	crs := []float64{50, 60, 66, 72, 78, 86}
	var slCross, mlCross float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := cs.Sweep(records, crs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		slCross = cs.CrossingCR(pts, dsp.GoodReconstructionSNR, false)
		mlCross = cs.CrossingCR(pts, dsp.GoodReconstructionSNR, true)
	}
	b.ReportMetric(slCross, "CR@20dB-single")
	b.ReportMetric(mlCross, "CR@20dB-multi")
	if !math.IsNaN(slCross) && !math.IsNaN(mlCross) && mlCross <= slCross {
		b.Errorf("multi-lead crossing %.1f should exceed single-lead %.1f", mlCross, slCross)
	}
}

// ---------------------------------------------------------------------
// Figure 6 — node energy breakdown (Radio / Sampling / Comp.) and total
// power reduction of CS vs raw streaming (paper: 44.7% / 56.1%).
// ---------------------------------------------------------------------

func BenchmarkFig6EnergyBreakdown(b *testing.B) {
	node := energy.DefaultNode()
	w := energy.WindowSpec{SamplesPerLead: 512, Leads: 3}
	var redSL, redML float64
	for i := 0; i < b.N; i++ {
		raw := node.RawStreamingWindow(w)
		sl := node.CSWindow("SL", w, cs.MeasurementsForCR(512, 65.9), 4*512)
		ml := node.CSWindow("ML", w, cs.MeasurementsForCR(512, 72.7), 4*512)
		redSL = energy.PowerReduction(raw, sl)
		redML = energy.PowerReduction(raw, ml)
	}
	b.ReportMetric(100*redSL, "%reduction-single")
	b.ReportMetric(100*redML, "%reduction-multi")
	if redML <= redSL {
		b.Error("multi-lead CS must reduce more energy than single-lead")
	}
}

// ---------------------------------------------------------------------
// Figure 7 — average power of the synchronized multi-core platform vs a
// single-core equivalent for 3L-MF, 3L-MMD, RP-CLASS (paper: up to 40%
// reduction).
// ---------------------------------------------------------------------

func BenchmarkFig7MulticorePower(b *testing.B) {
	var results []wbsn.AppResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = wbsn.RunFigure7(wbsn.DefaultEnergy(), 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(100*r.Reduction, "%red-"+r.App)
		if r.Reduction <= 0 {
			b.Errorf("%s: multi-core did not save power", r.App)
		}
	}
}

// ---------------------------------------------------------------------
// Text-1 — wavelet delineation accuracy (paper: Se/Sp > 90% for all
// fiducials) and the embedded duty cycle (paper: 7%).
// ---------------------------------------------------------------------

func BenchmarkText1Delineation(b *testing.B) {
	recs := ecg.GenerateSet(ecg.Config{Duration: 30, Noise: ecg.AmbulatoryNoise()}, 600, 3)
	node, err := core.NewNode(core.Config{Mode: core.ModeDelineation})
	if err != nil {
		b.Fatal(err)
	}
	var total delineation.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = delineation.Report{}
		for _, rec := range recs {
			total = delineation.Merge(total, nodeDelineation(b, node, rec))
		}
	}
	b.ReportMetric(100*total.R.Se(), "%Se-R")
	b.ReportMetric(100*total.PPeak.Se(), "%Se-Ppeak")
	b.ReportMetric(100*total.TPeak.Se(), "%Se-Tpeak")
	b.ReportMetric(100*total.R.PPV(), "%PPV-R")
	if !total.AllAbove(0.90) {
		b.Errorf("delineation below the 90%% target:\n%s", total.String())
	}
	// Embedded duty cycle at the nominal few-MHz clock.
	res, err := wbsn.RunApp(wbsn.App3LMMD(), wbsn.DefaultEnergy(), 1)
	if err != nil {
		b.Fatal(err)
	}
	duty := wbsn.DutyCycleAt(res.SCStats.Cycles, 2e6, 1.0)
	b.ReportMetric(100*duty, "%duty-cycle")
}

// nodeDelineation scores the beats a delineation node emits for rec.
func nodeDelineation(b *testing.B, node *core.Node, rec *ecg.Record) delineation.Report {
	b.Helper()
	res, err := node.Process(rec)
	if err != nil {
		b.Fatal(err)
	}
	beats := make([]delineation.BeatFiducials, len(res.Beats))
	for i, bo := range res.Beats {
		beats[i] = bo.Fiducials
	}
	return delineation.Evaluate(rec, beats, delineation.DefaultTolerances())
}

// ---------------------------------------------------------------------
// Text-2 — AF detection sensitivity/specificity (paper: 96% / 93%).
// ---------------------------------------------------------------------

func BenchmarkText2AF(b *testing.B) {
	node, err := core.NewNode(core.Config{Mode: core.ModeAFAlarm})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate the record set (generation excluded from timing).
	type labelled struct {
		rec *ecg.Record
		af  bool
	}
	var set []labelled
	for i := int64(0); i < 6; i++ {
		cfgN := ecg.Config{Seed: i, Duration: 60, Noise: ecg.NoiseConfig{EMG: 0.02}}
		if i%3 == 0 {
			cfgN.Rhythm.PVCRate = 0.08
		}
		set = append(set, labelled{ecg.Generate(cfgN), false})
		set = append(set, labelled{ecg.Generate(ecg.Config{
			Seed: 1000 + i, Duration: 60,
			Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF},
			Noise:  ecg.NoiseConfig{EMG: 0.02},
		}), true})
	}
	var se, sp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tp, fn, fp, tn int
		for _, s := range set {
			res, err := node.Process(s.rec)
			if err != nil {
				b.Fatal(err)
			}
			switch {
			case s.af && res.AFAlarm:
				tp++
			case s.af && !res.AFAlarm:
				fn++
			case !s.af && res.AFAlarm:
				fp++
			default:
				tn++
			}
		}
		se = float64(tp) / float64(tp+fn)
		sp = float64(tn) / float64(tn+fp)
	}
	b.ReportMetric(100*se, "%sensitivity")
	b.ReportMetric(100*sp, "%specificity")
	if se < 0.9 || sp < 0.9 {
		b.Errorf("AF detection Se=%.2f Sp=%.2f below plausibility floor", se, sp)
	}
}

// ---------------------------------------------------------------------
// Figure 1 — the abstraction ladder: transmitted bandwidth per level.
// ---------------------------------------------------------------------

func BenchmarkFig1Ladder(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 7, Duration: 30, Rhythm: ecg.RhythmConfig{PVCRate: 0.05}})
	var rungs []core.LadderRung
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rungs, err = core.Ladder(rec, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rungs {
		b.ReportMetric(r.TxBytesPerSecond, "B/s-"+r.Mode.String())
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].TxBytesPerSecond >= rungs[i-1].TxBytesPerSecond {
			b.Error("bandwidth ladder not monotone")
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the embedded kernels.
// ---------------------------------------------------------------------

func BenchmarkCSEncodeQ15(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	phi, err := cs.NewSparseBinary(175, 512, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	enc := cs.NewEncoder(phi)
	x := make([]fixedpt.Q15, 512)
	for i := range x {
		x[i] = fixedpt.FromFloat(rng.Float64()*0.5 - 0.25)
	}
	y := make([]int32, 175)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeQ15(x, y)
	}
}

func BenchmarkWaveletDWT(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	w := wavelet.Daubechies8()
	out := make([]float64, len(x))
	var s wavelet.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.ForwardInto(x, 5, out, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAtrousTransform(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 11, Duration: 4})
	x := rec.Clean[0]
	var details [][]float64
	var s wavelet.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if details, err = wavelet.AtrousInto(x, wavelet.AtrousScales, details, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelineateOneSecond(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 12, Duration: 60})
	combined := dsp.CombineRMS(rec.Clean)
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := del.Delineate(combined); err != nil {
			b.Fatal(err)
		}
	}
	// Normalise to per-second-of-signal cost.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/60, "ns/signal-s")
}

// BenchmarkAFDetect times the node's AF decisions over a delineated
// record: the features and fuzzy score of every window.
func BenchmarkAFDetect(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 13, Duration: 120, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	del, _ := delineation.NewWaveletDelineator(delineation.Config{Fs: 256})
	beats, err := del.Delineate(dsp.CombineRMS(rec.Clean))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s+af.WindowBeats <= len(beats); s += af.WindowBeats / 2 {
			af.Score(af.ExtractFeatures(beats[s:s+af.WindowBeats], 256))
		}
	}
}

func BenchmarkMorphFilterOneLead(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 14, Duration: 10, Noise: ecg.AmbulatoryNoise()})
	out := make([]float64, rec.Len())
	var s morpho.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := morpho.FilterInto(rec.Leads[0], morpho.FilterConfig{Fs: 256}, out, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulticoreSimCycle(b *testing.B) {
	app := wbsn.App3LMMD()
	mcProg, _, err := app.Programs()
	if err != nil {
		b.Fatal(err)
	}
	progs := []*wbsn.Program{mcProg, mcProg, mcProg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := wbsn.NewMachine(wbsn.MachineConfig{
			Cores: 3, IMemBanks: 2, DMemBanks: 3, Broadcast: true, Seed: 1,
		}, progs)
		if err != nil {
			b.Fatal(err)
		}
		m.Run(50e6)
	}
}

// ---------------------------------------------------------------------
// Gateway engine throughput and the noise-stress delineation table.
// ---------------------------------------------------------------------

// BenchmarkThroughputEngine drives the parallel reconstruction engine
// over a pre-encoded record batch at 1, 2 and GOMAXPROCS workers,
// reporting records/s and windows/s as custom metrics. Each worker
// count runs with the fixed-budget solver and with the convergence
// early exit armed (windows stay cold inside the batch API, so the
// cross-worker bit-identity contract is unchanged).
func BenchmarkThroughputEngine(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 92, Duration: 8})
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: 14})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([][]float64, len(rec.Leads))
	for li := range chunk {
		chunk[li] = rec.Clean[li]
	}
	events, err := stream.PushBlock(chunk)
	if err != nil {
		b.Fatal(err)
	}
	var windows [][][]float64
	for _, e := range events {
		if e.Kind == core.EventPacket && e.Measurements != nil {
			windows = append(windows, e.Measurements)
		}
	}
	workerSet := dedupeCounts([]int{1, 2, runtime.GOMAXPROCS(0)})
	for _, tol := range []float64{0, 1e-3} {
		solver := "fixed"
		if tol > 0 {
			solver = "earlyexit"
		}
		cfg := gateway.MatchNode(node.Config())
		cfg.Solver.Tol = tol
		for _, workers := range workerSet {
			b.Run(fmt.Sprintf("solver=%s/workers=%d", solver, workers), func(b *testing.B) {
				eng, err := gateway.NewEngine(cfg, gateway.EngineConfig{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if _, err := eng.DecodeWindows(windows); err != nil {
						b.Fatal(err)
					}
				}
				secs := time.Since(start).Seconds()
				if secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "records/s")
					b.ReportMetric(float64(b.N*len(windows))/secs, "windows/s")
				}
			})
		}
	}
}

// dedupeCounts drops repeated entries from a benchmark sweep while
// preserving order. On a single-core host GOMAXPROCS(0) collapses onto
// 1, which would otherwise register two subtests with the same name.
func dedupeCounts(counts []int) []int {
	out := counts[:0]
	seen := make(map[int]bool, len(counts))
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkThroughputEngineBatched measures the structure-of-arrays
// batched engine on its target workload: several concurrent warm
// streams whose windows arrive together, so one worker can fold K
// queued windows into a single SoA solver pass. Eight warm streams
// replay the same 8-second record window by window; batch=1 is the
// one-window-per-dispatch baseline (a K=1 pass of the same batched
// solver, bit-identically), and records/s counts one record per stream
// per iteration — directly comparable to BenchmarkThroughputEngine's
// records/s at equal worker count.
func BenchmarkThroughputEngineBatched(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 92, Duration: 8})
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: 14})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([][]float64, len(rec.Leads))
	for li := range chunk {
		chunk[li] = rec.Clean[li]
	}
	events, err := stream.PushBlock(chunk)
	if err != nil {
		b.Fatal(err)
	}
	var windows [][][]float64
	for _, e := range events {
		if e.Kind == core.EventPacket && e.Measurements != nil {
			windows = append(windows, e.Measurements)
		}
	}
	cfg := gateway.MatchNode(node.Config())
	cfg.Solver.Tol = 1e-3
	const streams = 8
	for _, batch := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			eng, err := gateway.NewEngine(cfg, gateway.EngineConfig{
				Workers:   1,
				Batch:     batch,
				BatchWait: time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			wss := make([]*cs.WarmState, streams)
			for s := range wss {
				wss[s] = cs.NewWarmState()
			}
			jobs := make([]*gateway.Job, streams)
			// One untimed sweep seeds every stream's warm state so the
			// timed loop measures steady-state throughput even at tiny
			// -benchtime iteration counts.
			for _, win := range windows {
				for s := range wss {
					j, err := eng.SubmitWarm(win, wss[s])
					if err != nil {
						b.Fatal(err)
					}
					jobs[s] = j
				}
				for _, j := range jobs {
					if _, err := j.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for _, win := range windows {
					for s := range wss {
						j, err := eng.SubmitWarm(win, wss[s])
						if err != nil {
							b.Fatal(err)
						}
						jobs[s] = j
					}
					for _, j := range jobs {
						if _, err := j.Wait(); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			secs := time.Since(start).Seconds()
			if secs > 0 {
				b.ReportMetric(float64(b.N*streams)/secs, "records/s")
				b.ReportMetric(float64(b.N*streams*len(windows))/secs, "windows/s")
			}
		})
	}
}

// BenchmarkNoiseStressDelineation reproduces the classic noise-stress
// protocol: the delineation node's R-peak detection quality as EMG
// noise grows. Published delineators degrade gracefully until the
// noise approaches the wave amplitudes.
func BenchmarkNoiseStressDelineation(b *testing.B) {
	node, err := core.NewNode(core.Config{Mode: core.ModeDelineation})
	if err != nil {
		b.Fatal(err)
	}
	levels := []float64{0.02, 0.06, 0.12, 0.20}
	results := map[float64]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, emg := range levels {
			var rep delineation.Report
			for seed := int64(0); seed < 2; seed++ {
				rec := ecg.Generate(ecg.Config{
					Seed: 950 + seed, Duration: 30,
					Noise: ecg.NoiseConfig{EMG: emg},
				})
				rep = delineation.Merge(rep, nodeDelineation(b, node, rec))
			}
			results[emg] = rep.R.Se()
		}
	}
	for _, emg := range levels {
		b.ReportMetric(100*results[emg], fmt.Sprintf("%%Se-R@EMG%.2f", emg))
	}
	if results[0.02] < 0.99 {
		b.Errorf("low-noise sensitivity %.3f", results[0.02])
	}
}

// ---------------------------------------------------------------------
// PR 3 — fleet engine: sharded multi-patient simulation and the
// allocation-free node hot path.
// ---------------------------------------------------------------------

// BenchmarkFleetStreamPush measures the steady-state per-sample cost of
// the node hot path after the allocation-free rework: a warm stream
// absorbs one sample per iteration, so allocs/op is the headline number
// (chunk-boundary work amortises over the hop; the acceptance bar is
// <= 2 allocs/op).
func BenchmarkFleetStreamPush(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 62, Duration: 40})
	for _, mode := range []core.Mode{core.ModeCS, core.ModeDelineation} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := core.Config{Mode: mode}
			if mode == core.ModeCS {
				cfg.CSRatio = 60
				cfg.Seed = 14
			}
			node, err := core.NewNode(cfg)
			if err != nil {
				b.Fatal(err)
			}
			stream, err := node.NewStream()
			if err != nil {
				b.Fatal(err)
			}
			block := make([][]float64, len(rec.Leads))
			pos := 0
			push := func() {
				at := pos % rec.Len()
				for li := range block {
					block[li] = rec.Leads[li][at : at+1]
				}
				pos++
				if _, err := stream.PushBlock(block); err != nil {
					b.Fatal(err)
				}
			}
			// Warm up the lead buffers and every scratch path.
			for i := 0; i < 4096; i++ {
				push()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push()
			}
		})
	}
}

// ---------------------------------------------------------------------
// PR 4 — telemetry layer: the cost of observing the hot path.
// ---------------------------------------------------------------------

// BenchmarkTelemetryOverhead runs the BenchmarkFleetStreamPush loop with
// and without the full metric family attached. All recording is
// amortised at chunk boundaries — the mid-chunk Push executes no
// telemetry code — so the acceptance bar is a <3% ns/op regression on
// the instrumented variants.
func BenchmarkTelemetryOverhead(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 63, Duration: 40})
	for _, mode := range []core.Mode{core.ModeCS, core.ModeDelineation} {
		for _, instrumented := range []bool{false, true} {
			tag := "off"
			if instrumented {
				tag = "on"
			}
			b.Run(fmt.Sprintf("%s/telemetry=%s", mode, tag), func(b *testing.B) {
				cfg := core.Config{Mode: mode}
				if mode == core.ModeCS {
					cfg.CSRatio = 60
					cfg.Seed = 14
				}
				node, err := core.NewNode(cfg)
				if err != nil {
					b.Fatal(err)
				}
				stream, err := node.NewStream()
				if err != nil {
					b.Fatal(err)
				}
				if instrumented {
					set := telemetry.NewSet(telemetry.NewRegistry())
					stream.SetTelemetry(set.Node)
				}
				block := make([][]float64, len(rec.Leads))
				pos := 0
				push := func() {
					at := pos % rec.Len()
					for li := range block {
						block[li] = rec.Leads[li][at : at+1]
					}
					pos++
					if _, err := stream.PushBlock(block); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < 4096; i++ {
					push()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					push()
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// PR 10 — hierarchical cluster: scheduling-round cost and allocation
// discipline at population scale.
// ---------------------------------------------------------------------

// BenchmarkFleetClusterRound measures one scheduling round of the
// hierarchical cluster per iteration — per-patient wall cost and,
// through B/op and allocs/op, the steady-state allocation bill of the
// tiered-state machinery (cold rehydration, warm snapshot capture,
// batched telemetry). Rounds advance across iterations, so every
// iteration after the first exercises the warm-carry path.
func BenchmarkFleetClusterRound(b *testing.B) {
	const patients = 8
	for _, topo := range [][2]int{{1, 1}, {2, 2}} {
		b.Run(fmt.Sprintf("groups=%dx%d", topo[0], topo[1]), func(b *testing.B) {
			cl, err := fleet.NewCluster(fleet.ClusterConfig{
				Fleet: fleet.Config{
					Patients:    patients,
					Seed:        61,
					SolverIters: 40,
					SolverTol:   1e-3,
					WarmStart:   true,
				},
				Groups:      topo[0],
				GroupShards: topo[1],
				Rounds:      1 << 30, // never "done": RunRound drives rounds directly
				SessionS:    2,
				CarryWarm:   true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			// One warm-up round fills rig buffers and the warm tier.
			if _, err := cl.RunRound(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := cl.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
			secs := time.Since(start).Seconds()
			if secs > 0 {
				b.ReportMetric(float64(b.N*patients)/secs, "patients/s")
			}
		})
	}
}

// BenchmarkFleetCheckpoint measures a full checkpoint round trip
// (serialise + restore) of a populated cluster — the pause a soak pays
// at every save point, and the B/op bill of the codec.
func BenchmarkFleetCheckpoint(b *testing.B) {
	const patients = 256
	cl, err := fleet.NewCluster(fleet.ClusterConfig{
		Fleet: fleet.Config{
			Patients:    patients,
			Seed:        61,
			SolverIters: 20,
			SolverTol:   1e-3,
			WarmStart:   true,
		},
		Rounds:    1,
		SessionS:  2,
		CarryWarm: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := cl.WriteCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
		if err := cl.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
