package ecg

import (
	"math"
	"testing"

	"wbsn/internal/dsp"
)

func TestGenerateDefaults(t *testing.T) {
	r := Generate(Config{Seed: 1})
	if r.Fs != 256 {
		t.Errorf("default Fs = %v", r.Fs)
	}
	if r.Len() != 256*30 {
		t.Errorf("default length = %d", r.Len())
	}
	if len(r.Leads) != 3 {
		t.Errorf("default lead count = %d", len(r.Leads))
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(r.Beats) < 25 || len(r.Beats) > 45 {
		t.Errorf("30 s at 72 bpm should give ~36 beats, got %d", len(r.Beats))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 42, Noise: AmbulatoryNoise()})
	b := Generate(Config{Seed: 42, Noise: AmbulatoryNoise()})
	if a.Len() != b.Len() || len(a.Beats) != len(b.Beats) {
		t.Fatal("same seed produced different structure")
	}
	for li := range a.Leads {
		for i := range a.Leads[li] {
			if a.Leads[li][i] != b.Leads[li][i] {
				t.Fatalf("sample mismatch at lead %d index %d", li, i)
			}
		}
	}
	c := Generate(Config{Seed: 43, Noise: AmbulatoryNoise()})
	same := true
	for i := range a.Leads[0] {
		if a.Leads[0][i] != c.Leads[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical signals")
	}
}

func TestRPeaksAreActualPeaks(t *testing.T) {
	r := Generate(Config{Seed: 7})
	lead := r.Clean[0]
	for _, b := range r.Beats {
		p := b.Fid.RPeak
		if p < 3 || p > len(lead)-4 {
			continue
		}
		// R peak must be a local maximum of the clean lead within ±3
		// samples (lead projection can shift the max slightly).
		localMax := lead[p]
		for d := -3; d <= 3; d++ {
			if lead[p+d] > localMax {
				localMax = lead[p+d]
			}
		}
		window := lead[p-3 : p+4]
		_, hi := dsp.MinMax(window)
		if hi != localMax {
			t.Fatal("inconsistent local max computation")
		}
		// The peak must dominate the surrounding 100 ms.
		lo := p - 25
		if lo < 0 {
			lo = 0
		}
		hi2 := p + 25
		if hi2 > len(lead) {
			hi2 = len(lead)
		}
		_, segMax := dsp.MinMax(lead[lo:hi2])
		if segMax > localMax+1e-9 {
			t.Errorf("R at %d is not the regional max (%v > %v)", p, segMax, localMax)
		}
	}
}

func TestNSRBeatsHavePWaves(t *testing.T) {
	r := Generate(Config{Seed: 3})
	for i, b := range r.Beats {
		if b.Label != LabelNormal {
			continue
		}
		if b.Fid.POn == -1 || b.Fid.PPeak == -1 {
			t.Fatalf("normal beat %d missing P-wave fiducials", i)
		}
		if b.Fid.PPeak >= b.Fid.QRSOn {
			t.Errorf("beat %d: P peak %d not before QRS onset %d", i, b.Fid.PPeak, b.Fid.QRSOn)
		}
	}
}

func TestFiducialOrdering(t *testing.T) {
	r := Generate(Config{Seed: 5, Rhythm: RhythmConfig{PVCRate: 0.08, APBRate: 0.05}, Duration: 120})
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// QRS on < R < QRS off < T on for every beat (P checked in Validate).
	for i, b := range r.Beats {
		f := b.Fid
		if !(f.QRSOn < f.RPeak && f.RPeak < f.QRSOff) {
			t.Errorf("beat %d QRS ordering broken: %d %d %d", i, f.QRSOn, f.RPeak, f.QRSOff)
		}
		if f.TOn <= f.RPeak {
			t.Errorf("beat %d T onset %d before R %d", i, f.TOn, f.RPeak)
		}
	}
}

func TestEctopyInjection(t *testing.T) {
	r := Generate(Config{Seed: 11, Duration: 300, Rhythm: RhythmConfig{PVCRate: 0.1, APBRate: 0.05}})
	var nPVC, nAPB, nNorm int
	for _, b := range r.Beats {
		switch b.Label {
		case LabelPVC:
			nPVC++
			if b.Fid.POn != -1 {
				t.Error("PVC should have no P wave")
			}
		case LabelAPB:
			nAPB++
			if b.Fid.POn == -1 {
				t.Error("APB should have a P wave")
			}
		case LabelNormal:
			nNorm++
		}
	}
	if nPVC == 0 || nAPB == 0 {
		t.Fatalf("expected ectopy: %d PVC, %d APB over %d beats", nPVC, nAPB, len(r.Beats))
	}
	if nNorm < len(r.Beats)/2 {
		t.Error("normal beats should dominate")
	}
}

func TestPVCIsWiderThanNormal(t *testing.T) {
	r := Generate(Config{Seed: 13, Duration: 300, Rhythm: RhythmConfig{PVCRate: 0.1}})
	var wN, wV, cN, cV float64
	for _, b := range r.Beats {
		w := float64(b.Fid.QRSOff - b.Fid.QRSOn)
		switch b.Label {
		case LabelNormal:
			wN += w
			cN++
		case LabelPVC:
			wV += w
			cV++
		}
	}
	if cN == 0 || cV == 0 {
		t.Fatal("need both classes")
	}
	if wV/cV < 1.5*(wN/cN) {
		t.Errorf("PVC width %.1f not clearly wider than normal %.1f", wV/cV, wN/cN)
	}
}

func TestAFRecordProperties(t *testing.T) {
	r := Generate(Config{Seed: 17, Duration: 120, Rhythm: RhythmConfig{Kind: RhythmAF}})
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.AFSegments) != 1 {
		t.Fatalf("AF record should annotate one AF segment, got %d", len(r.AFSegments))
	}
	if !r.InAF(r.Len() / 2) {
		t.Error("middle of AF record should report InAF")
	}
	for i, b := range r.Beats {
		if b.Label != LabelAF {
			t.Errorf("beat %d label %v in AF record", i, b.Label)
		}
		if b.Fid.POn != -1 {
			t.Error("AF beats must not have P waves")
		}
	}
	// RR irregularity: coefficient of variation well above NSR.
	rrAF := r.RRIntervals()
	cvAF := dsp.Std(rrAF) / dsp.Mean(rrAF)
	nsr := Generate(Config{Seed: 17, Duration: 120})
	rrN := nsr.RRIntervals()
	cvN := dsp.Std(rrN) / dsp.Mean(rrN)
	if cvAF < 3*cvN {
		t.Errorf("AF RR CV %.3f not clearly above NSR %.3f", cvAF, cvN)
	}
	if cvAF < 0.1 {
		t.Errorf("AF RR CV %.3f too regular", cvAF)
	}
}

func TestLeadsAreCorrelatedButDistinct(t *testing.T) {
	r := Generate(Config{Seed: 19})
	c01 := dsp.Correlation(r.Clean[0], r.Clean[1])
	if math.Abs(c01) < 0.3 {
		t.Errorf("leads should share cardiac structure: corr %v", c01)
	}
	if math.Abs(c01) > 0.999 {
		t.Errorf("leads should not be identical: corr %v", c01)
	}
}

func TestNoiseChangesSignalButKeepsClean(t *testing.T) {
	r := Generate(Config{Seed: 23, Noise: AmbulatoryNoise()})
	diff := 0.0
	for i := range r.Leads[0] {
		diff += math.Abs(r.Leads[0][i] - r.Clean[0][i])
	}
	if diff == 0 {
		t.Fatal("noise config did not alter the signal")
	}
	clean := Generate(Config{Seed: 23})
	for i := range clean.Leads[0] {
		if clean.Leads[0][i] != clean.Clean[0][i] {
			t.Fatal("without noise, Leads must equal Clean")
		}
	}
}

func TestGenerateSet(t *testing.T) {
	set := GenerateSet(Config{Duration: 10}, 100, 5)
	if len(set) != 5 {
		t.Fatalf("set size %d", len(set))
	}
	names := map[string]bool{}
	for _, r := range set {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		names[r.Name] = true
	}
	if len(names) != 5 {
		t.Error("records in a set should have distinct names")
	}
}

func TestGenerateMixed(t *testing.T) {
	set := GenerateMixed(Config{Duration: 20}, 7, 3, 2)
	if len(set) != 5 {
		t.Fatalf("mixed set size %d", len(set))
	}
	for i, r := range set {
		isAF := len(r.AFSegments) > 0
		if i < 3 && isAF {
			t.Errorf("record %d should be NSR", i)
		}
		if i >= 3 && !isAF {
			t.Errorf("record %d should be AF", i)
		}
	}
}

func TestRRIntervalsAndRPeaks(t *testing.T) {
	r := Generate(Config{Seed: 29, Duration: 60})
	peaks := r.RPeaks()
	if len(peaks) != len(r.Beats) {
		t.Fatal("RPeaks length mismatch")
	}
	rr := r.RRIntervals()
	if len(rr) != len(peaks)-1 {
		t.Fatal("RRIntervals length mismatch")
	}
	for i, v := range rr {
		if v < 0.3 || v > 2.0 {
			t.Errorf("implausible RR[%d] = %v s", i, v)
		}
	}
	mean := dsp.Mean(rr)
	if mean < 0.7 || mean > 1.0 {
		t.Errorf("mean RR %v s for 72 bpm", mean)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	r := Generate(Config{Seed: 31, Duration: 10})
	r.Leads[1] = r.Leads[1][:10]
	if r.Validate() == nil {
		t.Error("ragged leads must fail validation")
	}
	r = Generate(Config{Seed: 31, Duration: 10})
	r.Beats[0].Fid.RPeak = -5
	if r.Validate() == nil {
		t.Error("negative fiducial must fail validation")
	}
	r = Generate(Config{Seed: 31, Duration: 10})
	if len(r.Beats) >= 2 {
		r.Beats[1].Fid.RPeak = r.Beats[0].Fid.RPeak
		if r.Validate() == nil {
			t.Error("non-increasing R peaks must fail validation")
		}
	}
	empty := &Record{}
	if empty.Validate() != ErrNoLeads {
		t.Error("empty record must return ErrNoLeads")
	}
}

func TestBeatLabelString(t *testing.T) {
	cases := map[BeatLabel]string{
		LabelNormal: "N", LabelPVC: "V", LabelAPB: "A", LabelAF: "f", BeatLabel(99): "?",
	}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("label %d string %q, want %q", l, l.String(), want)
		}
	}
}

func TestDurationAndHelpers(t *testing.T) {
	r := Generate(Config{Seed: 1, Duration: 12})
	if math.Abs(r.Duration()-12) > 0.01 {
		t.Errorf("Duration = %v", r.Duration())
	}
	var empty Record
	if empty.Duration() != 0 || empty.Len() != 0 {
		t.Error("empty record helpers should be zero")
	}
}

func TestLeadSets(t *testing.T) {
	if len(LeadSetEinthoven3()) != 3 || len(LeadSetPseudoOrthogonal()) != 3 {
		t.Error("lead sets should have 3 vectors")
	}
	// Pseudo-orthogonal vectors are orthonormal.
	ls := LeadSetPseudoOrthogonal()
	for i := range ls {
		for j := range ls {
			d := ls[i].Dot(ls[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-12 {
				t.Errorf("dot(%d,%d) = %v", i, j, d)
			}
		}
	}
}

func TestLeadSetStandard12(t *testing.T) {
	ls := LeadSetStandard12()
	if len(ls) != 12 {
		t.Fatalf("12-lead set has %d vectors", len(ls))
	}
	// Einthoven's law: lead II = I + III must hold for the limb vectors.
	for k := 0; k < 3; k++ {
		if math.Abs(ls[1][k]-(ls[0][k]+ls[2][k])) > 1e-9 {
			t.Errorf("Einthoven relation broken in component %d", k)
		}
	}
	// A 12-lead record synthesises and validates.
	rec := Generate(Config{Seed: 5, Duration: 10, Leads: ls})
	if len(rec.Leads) != 12 {
		t.Fatalf("record has %d leads", len(rec.Leads))
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	// Precordial leads see the dipole differently from limb leads.
	c := dsp.Correlation(rec.Clean[0], rec.Clean[6])
	if math.Abs(c) > 0.98 {
		t.Errorf("V1 should differ from lead I: corr %v", c)
	}
}

func TestRespirationAmplitudeModulation(t *testing.T) {
	// With respiration modulation the per-beat R amplitudes oscillate at
	// the respiratory rate; without it they only carry the 5% jitter.
	mod := Generate(Config{Seed: 70, Duration: 120, Rhythm: RhythmConfig{MeanHR: 72}, RespAmpMod: 0.25})
	flat := Generate(Config{Seed: 70, Duration: 120, Rhythm: RhythmConfig{MeanHR: 72}})
	spread := func(r *Record) float64 {
		var amps []float64
		for _, b := range r.Beats {
			amps = append(amps, r.Clean[0][b.Fid.RPeak])
		}
		return dsp.Std(amps) / dsp.Mean(amps)
	}
	sm, sf := spread(mod), spread(flat)
	if sm < 1.5*sf {
		t.Errorf("respiration modulation not visible: CV %v vs %v", sm, sf)
	}
	if err := mod.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStandardDatabase(t *testing.T) {
	db := GenerateDatabase(20, 300)
	if len(db) != 16 {
		t.Fatalf("library has %d records", len(db))
	}
	names := map[string]bool{}
	afCount := 0
	for _, rec := range db {
		if err := rec.Validate(); err != nil {
			t.Fatalf("%s: %v", rec.Name, err)
		}
		if names[rec.Name] {
			t.Errorf("duplicate record name %s", rec.Name)
		}
		names[rec.Name] = true
		if len(rec.AFSegments) > 0 {
			afCount++
		}
	}
	if afCount != 3 {
		t.Errorf("expected 3 AF records, got %d", afCount)
	}
	// Morphology variants: wide-QRS record has broader complexes than
	// nsr-75; low-voltage has smaller R amplitudes.
	byName := map[string]*Record{}
	for _, rec := range db {
		byName[rec.Name] = rec
	}
	qrsWidth := func(r *Record) float64 {
		var w float64
		for _, b := range r.Beats {
			w += float64(b.Fid.QRSOff - b.Fid.QRSOn)
		}
		return w / float64(len(r.Beats))
	}
	if qrsWidth(byName["wide-qrs"]) < 1.4*qrsWidth(byName["nsr-75"]) {
		t.Errorf("wide-qrs record QRS %.1f vs normal %.1f",
			qrsWidth(byName["wide-qrs"]), qrsWidth(byName["nsr-75"]))
	}
	rAmp := func(r *Record) float64 {
		var a float64
		for _, b := range r.Beats {
			a += r.Clean[0][b.Fid.RPeak]
		}
		return a / float64(len(r.Beats))
	}
	if rAmp(byName["low-voltage"]) > 0.6*rAmp(byName["nsr-75"]) {
		t.Errorf("low-voltage record amplitude %.3f vs normal %.3f",
			rAmp(byName["low-voltage"]), rAmp(byName["nsr-75"]))
	}
}

func TestMorphologyOverrideKeepsEctopy(t *testing.T) {
	m := WideQRSMorphology()
	rec := Generate(Config{Seed: 80, Duration: 120, Morphology: &m, Rhythm: RhythmConfig{PVCRate: 0.1}})
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	hasPVC := false
	for _, b := range rec.Beats {
		if b.Label == LabelPVC {
			hasPVC = true
		}
	}
	if !hasPVC {
		t.Error("morphology override should not suppress ectopy")
	}
}

// The lead sets, record mix and AF lookup below are read only by the
// tests.

// LeadSetPseudoOrthogonal returns a 3-lead pseudo-orthogonal (X,Y,Z)
// configuration used by some holter devices.
func LeadSetPseudoOrthogonal() []Vec3 {
	return []Vec3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// GenerateMixed synthesises a labelled mix of NSR and AF records for the
// AF-detection experiment: nNSR normal records (with the given ectopy
// rates) followed by nAF fibrillation records.
func GenerateMixed(base Config, baseSeed int64, nNSR, nAF int) []*Record {
	var out []*Record
	for i := 0; i < nNSR; i++ {
		c := base
		c.Seed = baseSeed + int64(i)
		c.Rhythm.Kind = RhythmNSR
		out = append(out, Generate(c))
	}
	for i := 0; i < nAF; i++ {
		c := base
		c.Seed = baseSeed + int64(nNSR+i)
		c.Rhythm.Kind = RhythmAF
		out = append(out, Generate(c))
	}
	return out
}

// LeadSetStandard12 returns lead vectors approximating the projections
// of the standard 12-lead ECG (limb leads I, II, III, augmented aVR,
// aVL, aVF and precordial V1-V6) in a simplified torso geometry. The
// augmented and precordial directions follow the conventional frontal
// and horizontal plane angles.
func LeadSetStandard12() []Vec3 {
	return []Vec3{
		{1, 0, 0},         // I
		{0.5, 0.866, 0},   // II
		{-0.5, 0.866, 0},  // III
		{-0.866, -0.5, 0}, // aVR
		{0.866, -0.5, 0},  // aVL
		{0, 1, 0},         // aVF
		{-0.2, 0.1, 0.97}, // V1
		{0.1, 0.15, 0.98}, // V2
		{0.35, 0.2, 0.91}, // V3
		{0.6, 0.25, 0.76}, // V4
		{0.8, 0.25, 0.55}, // V5
		{0.95, 0.2, 0.25}, // V6
	}
}

// InAF reports whether sample index i falls inside an annotated AF
// segment.
func (r *Record) InAF(i int) bool {
	for _, seg := range r.AFSegments {
		if i >= seg[0] && i < seg[1] {
			return true
		}
	}
	return false
}
