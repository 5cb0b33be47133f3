package af

import (
	"math"
	"testing"

	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

// mkBeats builds a synthetic delineation output with the given RR pattern
// (in seconds) and P-wave presence flags.
func mkBeats(rrs []float64, hasP []bool, fs float64) []delineation.BeatFiducials {
	beats := make([]delineation.BeatFiducials, len(rrs)+1)
	pos := 100
	for i := range beats {
		beats[i].R = pos
		beats[i].P.Peak = -1
		if i < len(hasP) && hasP[i] {
			beats[i].P.Peak = pos - 40
		}
		if i < len(rrs) {
			pos += int(rrs[i] * fs)
		}
	}
	return beats
}

func TestExtractFeaturesRegularRhythm(t *testing.T) {
	fs := 256.0
	rrs := make([]float64, 30)
	hasP := make([]bool, 31)
	for i := range rrs {
		rrs[i] = 0.8
	}
	for i := range hasP {
		hasP[i] = true
	}
	f := ExtractFeatures(mkBeats(rrs, hasP, fs), fs)
	if f.NRMSSD > 0.02 {
		t.Errorf("regular rhythm NRMSSD = %v", f.NRMSSD)
	}
	if f.PAbsence != 0 {
		t.Errorf("all P present but PAbsence = %v", f.PAbsence)
	}
	if f.TPR > 0.1 {
		t.Errorf("regular rhythm TPR = %v", f.TPR)
	}
}

func TestExtractFeaturesIrregularRhythm(t *testing.T) {
	fs := 256.0
	// Alternating short/long RR: maximal turning-point ratio and large
	// RMSSD.
	rrs := make([]float64, 30)
	for i := range rrs {
		if i%2 == 0 {
			rrs[i] = 0.5
		} else {
			rrs[i] = 1.0
		}
	}
	hasP := make([]bool, 31) // none present
	f := ExtractFeatures(mkBeats(rrs, hasP, fs), fs)
	if f.NRMSSD < 0.3 {
		t.Errorf("alternating rhythm NRMSSD = %v", f.NRMSSD)
	}
	if f.PAbsence != 1 {
		t.Errorf("no P but PAbsence = %v", f.PAbsence)
	}
	if f.TPR < 0.9 {
		t.Errorf("alternating rhythm TPR = %v", f.TPR)
	}
}

func TestExtractFeaturesDegenerate(t *testing.T) {
	fs := 256.0
	if f := ExtractFeatures(nil, fs); f.NRMSSD != 0 || f.PAbsence != 0 {
		t.Error("empty beats should give zero features")
	}
	two := mkBeats([]float64{0.8}, []bool{true, true}, fs)
	if f := ExtractFeatures(two, fs); f.NRMSSD != 0 {
		t.Error("two beats should give zero features")
	}
}

func TestScoreRules(t *testing.T) {
	// Regular rhythm with P: no AF evidence.
	low := Score(Features{NRMSSD: 0.02, TPR: 0.2, RREntropy: 0.2, PAbsence: 0})
	if low > 0.1 {
		t.Errorf("quiet features score %v", low)
	}
	// Irregular + absent P: strong evidence.
	high := Score(Features{NRMSSD: 0.3, TPR: 0.7, RREntropy: 0.9, PAbsence: 0.9})
	if high < 0.9 {
		t.Errorf("full AF evidence scores %v", high)
	}
	// Irregular but P present (ectopy): sub-threshold.
	ect := Score(Features{NRMSSD: 0.3, TPR: 0.7, RREntropy: 0.9, PAbsence: 0.05})
	if ect >= 0.5 {
		t.Errorf("ectopy-only evidence scores %v, must stay below threshold", ect)
	}
	if ect <= low {
		t.Error("ectopy should still raise suspicion above quiet baseline")
	}
	// Monotonicity in PAbsence.
	s1 := Score(Features{NRMSSD: 0.2, PAbsence: 0.4})
	s2 := Score(Features{NRMSSD: 0.2, PAbsence: 0.8})
	if s2 < s1 {
		t.Error("score should not decrease with more absent P waves")
	}
}

func TestRampEdges(t *testing.T) {
	if ramp(0, 0.1, 0.2) != 0 || ramp(0.3, 0.1, 0.2) != 1 {
		t.Error("ramp saturation wrong")
	}
	if v := ramp(0.15, 0.1, 0.2); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("ramp midpoint = %v", v)
	}
}

// decide scores every decision window of beats as the node's stream
// does: WindowBeats consecutive beats, hopping by half a window.
func decide(beats []delineation.BeatFiducials, fs float64) []Decision {
	var out []Decision
	for start := 0; start+WindowBeats <= len(beats); start += WindowBeats / 2 {
		f := ExtractFeatures(beats[start:start+WindowBeats], fs)
		s := Score(f)
		out = append(out, Decision{StartBeat: start, Score: s, AF: s >= Threshold, Features: f})
	}
	return out
}

func TestDetectWindowing(t *testing.T) {
	fs := 256.0
	rrs := make([]float64, 40)
	hasP := make([]bool, 41)
	for i := range rrs {
		rrs[i] = 0.8
	}
	for i := range hasP {
		hasP[i] = true
	}
	decs := decide(mkBeats(rrs, hasP, fs), fs)
	if len(decs) == 0 {
		t.Fatal("no decisions")
	}
	for _, dec := range decs {
		if dec.AF {
			t.Errorf("regular rhythm window at beat %d flagged as AF (score %.3f)", dec.StartBeat, dec.Score)
		}
	}
}

func TestRecordVerdict(t *testing.T) {
	mk := func(flags ...bool) []Decision {
		out := make([]Decision, len(flags))
		for i, f := range flags {
			out[i].AF = f
		}
		return out
	}
	if RecordVerdict(nil, 0.5) {
		t.Error("empty decisions should be non-AF")
	}
	if !RecordVerdict(mk(true, true, false), 0.5) {
		t.Error("2/3 AF windows should be AF at majority")
	}
	if RecordVerdict(mk(true, false, false), 0.5) {
		t.Error("1/3 AF windows should not be AF at majority")
	}
	if !RecordVerdict(mk(true, false, false), 0.25) {
		t.Error("1/3 windows should be AF at frac=0.25")
	}
}

// TestEndToEndAFDetection is the Text-2 experiment in miniature: the
// detector must separate AF records from NSR records (including ectopic
// ones) with Se and Sp at or above the paper's 96%/93%.
func TestEndToEndAFDetection(t *testing.T) {
	fs := 256.0
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	var tp, fn, fp, tn int
	for seed := int64(0); seed < 8; seed++ {
		cfgN := ecg.Config{Seed: seed, Duration: 90, Noise: ecg.NoiseConfig{EMG: 0.02}}
		if seed%3 == 0 {
			cfgN.Rhythm.PVCRate = 0.08
			cfgN.Rhythm.APBRate = 0.05
		}
		rec := ecg.Generate(cfgN)
		beats, err := del.Delineate(dsp.CombineRMS(rec.Leads))
		if err != nil {
			t.Fatal(err)
		}
		if RecordVerdict(decide(beats, fs), 0.5) {
			fp++
		} else {
			tn++
		}
		recA := ecg.Generate(ecg.Config{
			Seed: 1000 + seed, Duration: 90,
			Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF},
			Noise:  ecg.NoiseConfig{EMG: 0.02},
		})
		beatsA, err := del.Delineate(dsp.CombineRMS(recA.Leads))
		if err != nil {
			t.Fatal(err)
		}
		if RecordVerdict(decide(beatsA, fs), 0.5) {
			tp++
		} else {
			fn++
		}
	}
	se := float64(tp) / float64(tp+fn)
	sp := float64(tn) / float64(tn+fp)
	if se < 0.96 {
		t.Errorf("AF sensitivity %.2f, want >= 0.96 (paper)", se)
	}
	if sp < 0.93 {
		t.Errorf("AF specificity %.2f, want >= 0.93 (paper)", sp)
	}
}

func TestExtractFeaturesQ15MatchesFloat(t *testing.T) {
	fs := 256.0
	// Irregular rhythm without P waves (AF-like).
	rrs := []float64{0.55, 0.83, 0.61, 0.97, 0.7, 0.58, 0.88, 0.62, 0.79, 0.66,
		0.91, 0.57, 0.73, 0.85, 0.6, 0.78, 0.69, 0.93, 0.64, 0.81}
	hasP := make([]bool, len(rrs)+1)
	for i := range hasP {
		hasP[i] = i%4 == 0 // a quarter of beats show P-like bumps
	}
	beats := mkBeats(rrs, hasP, fs)
	ff := ExtractFeatures(beats, fs)
	fq := ExtractFeaturesQ15(beats, fs).Float()
	if d := math.Abs(fq.NRMSSD - ff.NRMSSD); d > 0.01 {
		t.Errorf("NRMSSD: Q15 %v vs float %v", fq.NRMSSD, ff.NRMSSD)
	}
	if d := math.Abs(fq.TPR - ff.TPR); d > 0.001 {
		t.Errorf("TPR: Q15 %v vs float %v", fq.TPR, ff.TPR)
	}
	if d := math.Abs(fq.RREntropy - ff.RREntropy); d > 0.03 {
		t.Errorf("RREntropy: Q15 %v vs float %v", fq.RREntropy, ff.RREntropy)
	}
	if d := math.Abs(fq.PAbsence - ff.PAbsence); d > 0.001 {
		t.Errorf("PAbsence: Q15 %v vs float %v", fq.PAbsence, ff.PAbsence)
	}
}

func TestQ15FeaturesDriveSameDecisions(t *testing.T) {
	// The Q15 path must produce the same AF verdicts as the float path on
	// real delineation output.
	fs := 256.0
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ecg.RhythmKind{ecg.RhythmNSR, ecg.RhythmAF} {
		rec := ecg.Generate(ecg.Config{Seed: 60, Duration: 60, Rhythm: ecg.RhythmConfig{Kind: kind}})
		beats, err := del.Delineate(dsp.CombineRMS(rec.Clean))
		if err != nil {
			t.Fatal(err)
		}
		if len(beats) < 24 {
			t.Fatal("not enough beats")
		}
		w := beats[:24]
		sFloat := Score(ExtractFeatures(w, fs))
		sQ15 := Score(ExtractFeaturesQ15(w, fs).Float())
		if (sFloat >= 0.5) != (sQ15 >= 0.5) {
			t.Errorf("%v: decisions diverge (float %.3f vs Q15 %.3f)", kind, sFloat, sQ15)
		}
		if math.Abs(sFloat-sQ15) > 0.1 {
			t.Errorf("%v: scores diverge (float %.3f vs Q15 %.3f)", kind, sFloat, sQ15)
		}
	}
}

func TestExtractFeaturesQ15Degenerate(t *testing.T) {
	if f := ExtractFeaturesQ15(nil, 256); f.NRMSSD != 0 || f.PAbsence != 0 {
		t.Error("empty beats should give zero Q15 features")
	}
}
