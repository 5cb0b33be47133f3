package delineation

import (
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/morpho"
)

func TestConfigValidation(t *testing.T) {
	if _, err := NewWaveletDelineator(Config{}); err != ErrConfig {
		t.Error("missing Fs should fail (wavelet)")
	}
	if _, err := NewMorphDelineator(Config{}); err != ErrConfig {
		t.Error("missing Fs should fail (morph)")
	}
	if _, err := NewWaveletDelineator(Config{Fs: 256}); err != nil {
		t.Error("valid config should succeed")
	}
}

func TestShortSignalGivesNoBeats(t *testing.T) {
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	beats, err := wd.Delineate(make([]float64, 10))
	if err != nil || beats != nil {
		t.Error("short signal should return nil, nil")
	}
	md, _ := NewMorphDelineator(Config{Fs: 256})
	beats, err = md.Delineate(make([]float64, 10))
	if err != nil || beats != nil {
		t.Error("short signal should return nil, nil (morph)")
	}
}

func TestFlatSignalGivesNoBeats(t *testing.T) {
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	beats, err := wd.Delineate(make([]float64, 5120))
	if err != nil {
		t.Fatal(err)
	}
	if len(beats) != 0 {
		t.Errorf("flat signal produced %d beats", len(beats))
	}
}

// delineatorCase runs one delineator over clean NSR records and checks
// the paper's >90% Se/PPV claim with margin.
func checkAccuracy(t *testing.T, name string, delineate func([]float64) ([]BeatFiducials, error)) {
	t.Helper()
	var total Report
	for seed := int64(0); seed < 3; seed++ {
		rec := ecg.Generate(ecg.Config{Seed: seed, Duration: 40})
		combined := dsp.CombineRMS(rec.Clean)
		beats, err := delineate(combined)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total = Merge(total, Evaluate(rec, beats, DefaultTolerances()))
	}
	if !total.AllAbove(0.90) {
		t.Errorf("%s below 90%% target:\n%s", name, total.String())
	}
	if total.R.Se() < 0.99 {
		t.Errorf("%s R-peak sensitivity %.3f, want >= 0.99", name, total.R.Se())
	}
}

func TestWaveletDelineatorCleanAccuracy(t *testing.T) {
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	checkAccuracy(t, "wavelet", wd.Delineate)
}

func TestMorphDelineatorCleanAccuracy(t *testing.T) {
	md, _ := NewMorphDelineator(Config{Fs: 256})
	checkAccuracy(t, "morph", md.Delineate)
}

func TestWaveletDelineatorNoisyAccuracy(t *testing.T) {
	// The paper's Section V claim (>90% with noise handled by the
	// morphological conditioning filter).
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	var total Report
	for seed := int64(0); seed < 3; seed++ {
		rec := ecg.Generate(ecg.Config{Seed: seed, Duration: 40, Noise: ecg.AmbulatoryNoise()})
		filtered, err := morpho.FilterLeads(rec.Leads, morpho.FilterConfig{Fs: 256})
		if err != nil {
			t.Fatal(err)
		}
		combined := dsp.CombineRMS(filtered)
		beats, err := wd.Delineate(combined)
		if err != nil {
			t.Fatal(err)
		}
		total = Merge(total, Evaluate(rec, beats, DefaultTolerances()))
	}
	if !total.AllAbove(0.90) {
		t.Errorf("noisy delineation below 90%%:\n%s", total.String())
	}
}

// TestTrailingPartialBlock delineates signals that end in a partial
// 2 s threshold block: the last 3 s of Text-1's records, conditioned as
// the delineation node conditions its final stream chunk. The 1 s tail
// block joins the block before it, so no T wave passes for an R peak:
// every detected R lies within the R tolerance of a true beat.
func TestTrailingPartialBlock(t *testing.T) {
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	for seed := int64(7); seed < 12; seed++ {
		rec := ecg.Generate(ecg.Config{Seed: seed, Duration: 60, Noise: ecg.AmbulatoryNoise()})
		from := rec.Len() - int(3*rec.Fs)
		tail := make([][]float64, len(rec.Leads))
		for i, l := range rec.Leads {
			tail[i] = l[from:]
		}
		filtered, err := morpho.FilterLeads(tail, morpho.FilterConfig{Fs: rec.Fs})
		if err != nil {
			t.Fatal(err)
		}
		beats, err := wd.Delineate(dsp.CombineRMS(filtered))
		if err != nil {
			t.Fatal(err)
		}
		if len(beats) == 0 {
			t.Fatalf("seed %d: no beat in the last 3 s", seed)
		}
		tol := int(DefaultTolerances().RPeak * rec.Fs / 1000)
		for _, b := range beats {
			d := len(rec.Leads[0])
			for _, tb := range rec.Beats {
				d = min(d, max(tb.Fid.RPeak-(from+b.R), from+b.R-tb.Fid.RPeak))
			}
			if d > tol {
				t.Errorf("seed %d: R at %d is %d samples from any true beat", seed, from+b.R, d)
			}
		}
	}
}

func TestDelineatorSuppressesPInAF(t *testing.T) {
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	rec := ecg.Generate(ecg.Config{Seed: 9, Duration: 60, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	combined := dsp.CombineRMS(rec.Clean)
	beats, err := wd.Delineate(combined)
	if err != nil {
		t.Fatal(err)
	}
	if len(beats) == 0 {
		t.Fatal("no beats detected in AF record")
	}
	pFound := 0
	for _, b := range beats {
		if b.P.Peak >= 0 {
			pFound++
		}
	}
	frac := float64(pFound) / float64(len(beats))
	if frac > 0.5 {
		t.Errorf("P 'detected' in %.0f%% of AF beats; fibrillation should suppress most", 100*frac)
	}
	// NSR baseline: nearly all beats have P.
	nsr := ecg.Generate(ecg.Config{Seed: 9, Duration: 60})
	nb, _ := wd.Delineate(dsp.CombineRMS(nsr.Clean))
	pN := 0
	for _, b := range nb {
		if b.P.Peak >= 0 {
			pN++
		}
	}
	if float64(pN)/float64(len(nb)) < 0.9 {
		t.Errorf("NSR P detection rate %.2f too low", float64(pN)/float64(len(nb)))
	}
}

func TestDelineatorHandlesEctopy(t *testing.T) {
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	rec := ecg.Generate(ecg.Config{Seed: 4, Duration: 120, Rhythm: ecg.RhythmConfig{PVCRate: 0.08}})
	beats, err := wd.Delineate(dsp.CombineRMS(rec.Clean))
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(rec, beats, DefaultTolerances())
	if rep.R.Se() < 0.95 {
		t.Errorf("R sensitivity with PVCs = %.3f", rep.R.Se())
	}
	if rep.R.PPV() < 0.95 {
		t.Errorf("R PPV with PVCs = %.3f", rep.R.PPV())
	}
}

func TestRMSCombinationImprovesNoisyDelineation(t *testing.T) {
	// Ref [11]: combining leads reduces noise before delineation.
	wd, _ := NewWaveletDelineator(Config{Fs: 256})
	noise := ecg.NoiseConfig{EMG: 0.12}
	var seSingle, seComb float64
	n := 0
	for seed := int64(20); seed < 24; seed++ {
		rec := ecg.Generate(ecg.Config{Seed: seed, Duration: 40, Noise: noise})
		bs, err := wd.Delineate(rec.Leads[2]) // weakest Einthoven lead
		if err != nil {
			t.Fatal(err)
		}
		bc, err := wd.Delineate(dsp.CombineRMS(rec.Leads))
		if err != nil {
			t.Fatal(err)
		}
		rs := Evaluate(rec, bs, DefaultTolerances())
		rc := Evaluate(rec, bc, DefaultTolerances())
		seSingle += rs.R.Se() + rs.R.PPV()
		seComb += rc.R.Se() + rc.R.PPV()
		n++
	}
	if seComb < seSingle {
		t.Errorf("RMS combination did not help: combined %.3f vs single %.3f",
			seComb/float64(n), seSingle/float64(n))
	}
}

func TestEvaluateCounts(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 2, Duration: 20})
	// Perfect detections straight from ground truth.
	var beats []BeatFiducials
	for _, b := range rec.Beats {
		beats = append(beats, BeatFiducials{
			R:   b.Fid.RPeak,
			QRS: Wave{On: b.Fid.QRSOn, Peak: b.Fid.RPeak, Off: b.Fid.QRSOff},
			P:   Wave{On: b.Fid.POn, Peak: b.Fid.PPeak, Off: b.Fid.POff},
			T:   Wave{On: b.Fid.TOn, Peak: b.Fid.TPeak, Off: b.Fid.TOff},
		})
	}
	rep := Evaluate(rec, beats, DefaultTolerances())
	if rep.R.Se() != 1 || rep.R.PPV() != 1 || rep.R.MeanErrMs() != 0 {
		t.Error("perfect detections should score Se=PPV=1, err=0")
	}
	if !rep.AllAbove(0.999) {
		t.Error("perfect detections fail AllAbove")
	}
	// Remove half the detections: Se drops, PPV stays 1.
	rep2 := Evaluate(rec, beats[:len(beats)/2], DefaultTolerances())
	if rep2.R.Se() >= 0.75 {
		t.Errorf("halved detections Se = %v", rep2.R.Se())
	}
	if rep2.R.PPV() != 1 {
		t.Errorf("halved detections PPV = %v", rep2.R.PPV())
	}
	// Shift detections beyond tolerance: all FP+FN.
	shifted := make([]BeatFiducials, len(beats))
	copy(shifted, beats)
	for i := range shifted {
		shifted[i].R += 100
	}
	rep3 := Evaluate(rec, shifted, DefaultTolerances())
	if rep3.R.TP != 0 {
		t.Errorf("shifted detections still matched: TP=%d", rep3.R.TP)
	}
}

func TestMergeAddsCounters(t *testing.T) {
	a := Report{R: PointScore{TP: 3, FP: 1, FN: 2, ErrSumMs: 9}}
	b := Report{R: PointScore{TP: 2, FP: 0, FN: 1, ErrSumMs: 4}}
	m := Merge(a, b)
	if m.R.TP != 5 || m.R.FP != 1 || m.R.FN != 3 || m.R.ErrSumMs != 13 {
		t.Errorf("Merge result %+v", m.R)
	}
}

func TestPointScoreEdgeCases(t *testing.T) {
	var s PointScore
	if !isNaN(s.Se()) || !isNaN(s.PPV()) || !isNaN(s.MeanErrMs()) {
		t.Error("empty score should be NaN everywhere")
	}
	s = PointScore{TP: 8, FN: 2, FP: 2, ErrSumMs: 40}
	if s.Se() != 0.8 || s.PPV() != 0.8 || s.MeanErrMs() != 5 {
		t.Errorf("score math wrong: %v %v %v", s.Se(), s.PPV(), s.MeanErrMs())
	}
}

func isNaN(f float64) bool { return f != f }

func TestMeasureIntervals(t *testing.T) {
	fs := 256.0
	rec := ecg.Generate(ecg.Config{Seed: 15, Duration: 40})
	wd, _ := NewWaveletDelineator(Config{Fs: fs})
	beats, err := wd.Delineate(dsp.CombineRMS(rec.Clean))
	if err != nil {
		t.Fatal(err)
	}
	ivs := MeasureIntervals(beats, fs)
	if len(ivs) != len(beats) {
		t.Fatalf("interval count %d vs %d beats", len(ivs), len(beats))
	}
	s := Summarize(ivs)
	// The generator's textbook morphology: PR ≈ 110-190 ms, QRS ≈
	// 60-140 ms, QT ≈ 300-480 ms, QTc in the normal range.
	if s.MeanPR < 0.10 || s.MeanPR > 0.20 {
		t.Errorf("mean PR = %.3f s", s.MeanPR)
	}
	if s.MeanQRS < 0.05 || s.MeanQRS > 0.15 {
		t.Errorf("mean QRS = %.3f s", s.MeanQRS)
	}
	// The generator places T-offset at ~430 ms after R (T centred at
	// 300 ms with σ=55 ms), so the true QT is ≈470-490 ms and QTc sits
	// just above 0.5 — measured values must agree with that construction.
	if s.MeanQT < 0.40 || s.MeanQT > 0.55 {
		t.Errorf("mean QT = %.3f s", s.MeanQT)
	}
	if s.MeanQTc < 0.42 || s.MeanQTc > 0.58 {
		t.Errorf("mean QTc = %.3f s", s.MeanQTc)
	}
	if s.MeanRR < 0.7 || s.MeanRR > 1.0 {
		t.Errorf("mean RR = %.3f s", s.MeanRR)
	}
	// First beat has no RR/QTc.
	if !isNaN(ivs[0].RR) || !isNaN(ivs[0].QTc) {
		t.Error("first beat should have NaN RR and QTc")
	}
}

func TestIntervalsWithMissingWaves(t *testing.T) {
	beats := []BeatFiducials{
		{R: 100, QRS: Wave{On: 90, Peak: 100, Off: 112}, P: Wave{On: -1, Peak: -1, Off: -1}, T: Wave{On: -1, Peak: -1, Off: -1}},
		{R: 300, QRS: Wave{On: 290, Peak: 300, Off: 312}, P: Wave{On: 260, Peak: 266, Off: 272}, T: Wave{On: 360, Peak: 380, Off: 400}},
	}
	ivs := MeasureIntervals(beats, 256)
	if !isNaN(ivs[0].PR) || !isNaN(ivs[0].QT) {
		t.Error("missing waves should give NaN intervals")
	}
	if isNaN(ivs[1].PR) || isNaN(ivs[1].QT) || isNaN(ivs[1].QTc) {
		t.Error("complete beat should have all intervals")
	}
	s := Summarize(ivs)
	if s.Beats != 2 {
		t.Error("summary beat count wrong")
	}
	if isNaN(s.MeanPR) {
		t.Error("summary should average the defined intervals")
	}
	if got := Summarize(nil); !isNaN(got.MeanPR) || got.Beats != 0 {
		t.Error("empty summary should be NaN/0")
	}
}

// BenchmarkAblationLeadCombine compares single-lead delineation with
// RMS-combined multi-lead delineation under EMG noise (ref [11]).
func BenchmarkAblationLeadCombine(b *testing.B) {
	recs := ecg.GenerateSet(ecg.Config{Duration: 30, Noise: ecg.NoiseConfig{EMG: 0.12}}, 900, 3)
	del, err := NewWaveletDelineator(Config{Fs: 256})
	if err != nil {
		b.Fatal(err)
	}
	var seSingle, seComb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var single, comb Report
		for _, rec := range recs {
			bs, err := del.Delineate(rec.Leads[2])
			if err != nil {
				b.Fatal(err)
			}
			bc, err := del.Delineate(dsp.CombineRMS(rec.Leads))
			if err != nil {
				b.Fatal(err)
			}
			single = Merge(single, Evaluate(rec, bs, DefaultTolerances()))
			comb = Merge(comb, Evaluate(rec, bc, DefaultTolerances()))
		}
		seSingle = single.R.Se()
		seComb = comb.R.Se()
	}
	b.ReportMetric(100*seSingle, "%Se-single-lead")
	b.ReportMetric(100*seComb, "%Se-rms-combined")
}
