package classify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wbsn/internal/ecg"
	"wbsn/internal/fixedpt"
)

func TestNewRPMatrixValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewRPMatrix(0, 10, rng); err != ErrRPDims {
		t.Error("k=0 should fail")
	}
	if _, err := NewRPMatrix(10, 0, rng); err != ErrRPDims {
		t.Error("n=0 should fail")
	}
}

func TestRPMatrixEntryDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewRPMatrix(32, 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for r := 0; r < m.k; r++ {
		for c := 0; c < m.n; c++ {
			counts[m.entry(r, c)]++
		}
	}
	total := 32 * 128
	// Achlioptas: P(+1)=P(−1)=1/6, P(0)=2/3.
	fPlus := float64(counts[1]) / float64(total)
	fMinus := float64(counts[-1]) / float64(total)
	fZero := float64(counts[0]) / float64(total)
	if math.Abs(fPlus-1.0/6) > 0.03 || math.Abs(fMinus-1.0/6) > 0.03 || math.Abs(fZero-2.0/3) > 0.04 {
		t.Errorf("entry distribution off: +1=%.3f −1=%.3f 0=%.3f", fPlus, fMinus, fZero)
	}
}

func TestRPMatrixMemoryPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := NewRPMatrix(16, 166, rng) // the paper's 7.2 kB regime is this scale
	packed := len(m.bits) * 8
	unpacked := 16 * 166 * 8 // float64 storage
	if packed*16 > unpacked {
		t.Errorf("2-bit packing should be ≥16x smaller: %d vs %d", packed, unpacked)
	}
}

// Property: projection approximately preserves distances
// (Johnson–Lindenstrauss). With k=64 the distortion of most pairs stays
// within ~50%.
func TestRPJohnsonLindenstrauss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k, n := 64, 256
	m, _ := NewRPMatrix(k, n, rng)
	within := 0
	trials := 60
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		za, err := m.Project(a)
		if err != nil {
			t.Fatal(err)
		}
		zb, _ := m.Project(b)
		dOrig := math.Sqrt(sqDist(a, b))
		dProj := math.Sqrt(sqDist(za, zb))
		ratio := dProj / dOrig
		if ratio > 0.5 && ratio < 1.5 {
			within++
		}
	}
	if within < trials*8/10 {
		t.Errorf("only %d/%d pairs within 50%% distortion", within, trials)
	}
}

func TestProjectRejectsBadLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewRPMatrix(8, 32, rng)
	if _, err := m.Project(make([]float64, 31)); err != ErrBadInput {
		t.Error("wrong input length should fail")
	}
	if _, err := m.ProjectQ15(make([]fixedpt.Q15, 31)); err != ErrBadInput {
		t.Error("wrong Q15 input length should fail")
	}
}

func TestProjectQ15MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, _ := NewRPMatrix(16, 128, rng)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 128)
		for i := range x {
			x[i] = r.Float64()*0.2 - 0.1 // keep projections in Q15 range
		}
		zf, err := m.Project(x)
		if err != nil {
			return false
		}
		zq, err := m.ProjectQ15(fixedpt.FromSlice(x))
		if err != nil {
			return false
		}
		for i := range zf {
			if math.Abs(zq[i].Float()-zf[i]) > 0.01 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAddsPerProjectionMatchesDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, _ := NewRPMatrix(16, 300, rng)
	adds := m.AddsPerProjection()
	expect := float64(16*300) / 3 // 1/3 of entries non-zero
	if math.Abs(float64(adds)-expect) > expect*0.15 {
		t.Errorf("AddsPerProjection = %d, expected about %.0f", adds, expect)
	}
}

func TestBeatWindowExtract(t *testing.T) {
	fs := 256.0
	w := DefaultBeatWindow(fs)
	if w.Len() != w.Before+w.After {
		t.Error("Len inconsistent")
	}
	x := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i%100) / 50
	}
	if w.Extract(x, 10) != nil {
		t.Error("window off the left edge should return nil")
	}
	if w.Extract(x, 999) != nil {
		t.Error("window off the right edge should return nil")
	}
	beat := w.Extract(x, 500)
	if beat == nil || len(beat) != w.Len() {
		t.Fatal("valid window extraction failed")
	}
	// Normalised: zero mean, peak |amplitude| 1.
	mean, peak := 0.0, 0.0
	for _, v := range beat {
		mean += v
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	mean /= float64(len(beat))
	if math.Abs(mean) > 1e-9 {
		t.Errorf("extracted beat mean = %v", mean)
	}
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("extracted beat peak = %v", peak)
	}
	// All-zero segment stays zero without dividing by zero.
	flat := w.Extract(make([]float64, 1000), 500)
	for _, v := range flat {
		if v != 0 {
			t.Error("flat window should stay zero")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rp, _ := NewRPMatrix(4, 16, rng)
	if _, err := Train(rp, nil, TrainConfig{}); err != ErrNoSamples {
		t.Error("empty sample map should fail")
	}
	if _, err := Train(rp, map[int][][]float64{1: {}}, TrainConfig{}); err != ErrNoSamples {
		t.Error("class with no samples should fail")
	}
}

// TestTrainIsAFunctionOfItsSeed: k-means seeds every class from one
// shared rng, so training must visit the classes in a fixed order —
// ranging over the sample map would make the prototypes depend on Go's
// map iteration order.
func TestTrainIsAFunctionOfItsSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rp, _ := NewRPMatrix(4, 16, rng)
	samples := map[int][][]float64{}
	for label := 0; label < 5; label++ {
		for i := 0; i < 12; i++ {
			v := make([]float64, 4)
			for j := range v {
				v[j] = float64(label) + rng.NormFloat64()
			}
			samples[label] = append(samples[label], v)
		}
	}
	var want string
	for run := 0; run < 20; run++ {
		cl, err := Train(rp, samples, TrainConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v", cl.protos)
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("training %d gave different prototypes from the same samples and seed", run)
		}
	}
}

func TestClassifierSeparatesGaussianBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rp, _ := NewRPMatrix(4, 16, rng)
	mk := func(center float64, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			v := make([]float64, 4)
			for j := range v {
				v[j] = center + 0.05*rng.NormFloat64()
			}
			out[i] = v
		}
		return out
	}
	samples := map[int][][]float64{0: mk(0, 40), 1: mk(1, 40), 2: mk(-1, 40)}
	cl, err := Train(rp, samples, TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Classes(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("Classes() = %v", got)
	}
	for label, center := range map[int]float64{0: 0, 1: 1, 2: -1} {
		z := []float64{center, center, center, center}
		pred, mem, err := cl.PredictProjected(z)
		if err != nil {
			t.Fatal(err)
		}
		if pred != label {
			t.Errorf("blob at %v predicted %d, want %d", center, pred, label)
		}
		if mem <= 0 || mem > 1 {
			t.Errorf("membership %v out of (0,1]", mem)
		}
	}
}

func TestPredictOnUntrained(t *testing.T) {
	cl := &Classifier{}
	if _, _, err := cl.PredictProjected([]float64{1}); err != ErrNoturn {
		t.Error("untrained classifier should refuse to predict")
	}
}

func TestLinExpClassifierAgreesWithExact(t *testing.T) {
	// Section IV.A: the 4-segment linearization achieves close-to-optimal
	// classification. Verify the two kernel paths agree on nearly all
	// test beats.
	recs := ecg.GenerateSet(ecg.Config{Duration: 60, Rhythm: ecg.RhythmConfig{PVCRate: 0.1}}, 70, 3)
	fs := 256.0
	w := DefaultBeatWindow(fs)
	rng := rand.New(rand.NewSource(10))
	rp, _ := NewRPMatrix(16, w.Len(), rng)
	ds, err := BuildDataset(recs, 0, w, rp)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.6)
	cl, err := Train(rp, train.ByClass, TrainConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for _, vecs := range test.ByClass {
		for _, z := range vecs {
			cl.UseLinExp = false
			pExact, _, _ := cl.PredictProjected(z)
			cl.UseLinExp = true
			pLin, _, _ := cl.PredictProjected(z)
			if pExact == pLin {
				agree++
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no test beats")
	}
	if float64(agree)/float64(total) < 0.97 {
		t.Errorf("linearized kernel agrees on %d/%d beats, want >= 97%%", agree, total)
	}
}

func TestEndToEndHeartbeatClassification(t *testing.T) {
	// The RP-CLASS pipeline on synthetic beats with ectopy: accuracy must
	// clear 90% (ref [14] reports comparable figures on MIT-BIH).
	recs := ecg.GenerateSet(ecg.Config{
		Duration: 90,
		Rhythm:   ecg.RhythmConfig{PVCRate: 0.1, APBRate: 0.06},
		Noise:    ecg.NoiseConfig{EMG: 0.02},
	}, 42, 4)
	fs := 256.0
	w := DefaultBeatWindow(fs)
	rng := rand.New(rand.NewSource(11))
	rp, _ := NewRPMatrix(16, w.Len(), rng)
	ds, err := BuildDataset(recs, 0, w, rp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.ByClass) < 3 {
		t.Fatalf("expected 3 classes, got %d", len(ds.ByClass))
	}
	train, test := ds.Split(0.6)
	cl, err := Train(rp, train.ByClass, TrainConfig{PrototypesPerClass: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := EvaluateClassifier(cl, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc := cm.Accuracy(); acc < 0.90 {
		t.Errorf("classification accuracy %.3f, want >= 0.90", acc)
	}
	// PVC (label 1) detection quality is the clinically critical number.
	if se := cm.Sensitivity(int(ecg.LabelPVC)); se < 0.85 {
		t.Errorf("PVC sensitivity %.3f", se)
	}
	if sp := cm.Specificity(int(ecg.LabelPVC)); sp < 0.90 {
		t.Errorf("PVC specificity %.3f", sp)
	}
}

func TestConfusionMatrixMath(t *testing.T) {
	cm := &ConfusionMatrix{
		Labels: []int{0, 1},
		Counts: map[int]map[int]int{
			0: {0: 90, 1: 10},
			1: {0: 5, 1: 45},
		},
	}
	if math.Abs(cm.Accuracy()-135.0/150) > 1e-12 {
		t.Errorf("Accuracy = %v", cm.Accuracy())
	}
	if math.Abs(cm.Sensitivity(1)-0.9) > 1e-12 {
		t.Errorf("Sensitivity(1) = %v", cm.Sensitivity(1))
	}
	if math.Abs(cm.Specificity(1)-0.9) > 1e-12 {
		t.Errorf("Specificity(1) = %v", cm.Specificity(1))
	}
	if cm.Sensitivity(99) != 0 {
		t.Error("unknown label sensitivity should be 0")
	}
	if cm.Specificity(99) != 1 {
		t.Error("unknown label specificity should be 1 (no false positives)")
	}
	empty := &ConfusionMatrix{Counts: map[int]map[int]int{}}
	if empty.Accuracy() != 0 {
		t.Error("empty matrix accuracy should be 0")
	}
}

func TestDatasetSplitProportions(t *testing.T) {
	ds := &Dataset{ByClass: map[int][][]float64{
		0: make([][]float64, 10),
		1: make([][]float64, 4),
	}, Count: 14}
	train, test := ds.Split(0.5)
	if len(train.ByClass[0]) != 5 || len(test.ByClass[0]) != 5 {
		t.Error("class 0 split wrong")
	}
	if len(train.ByClass[1]) != 2 || len(test.ByClass[1]) != 2 {
		t.Error("class 1 split wrong")
	}
	if train.Count+test.Count != ds.Count {
		t.Error("split loses samples")
	}
}

func TestKMeansDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// All identical points: k-means must not hang or panic.
	vecs := make([][]float64, 5)
	for i := range vecs {
		vecs[i] = []float64{1, 1}
	}
	centers, assign := kMeans(vecs, 3, 10, rng)
	if len(centers) != 3 || len(assign) != 5 {
		t.Error("degenerate k-means shapes wrong")
	}
	for _, c := range centers {
		if c[0] != 1 || c[1] != 1 {
			t.Error("degenerate centres should coincide with the data")
		}
	}
}

func TestKFoldPartitioning(t *testing.T) {
	ds := &Dataset{ByClass: map[int][][]float64{
		0: make([][]float64, 10),
		1: make([][]float64, 7),
	}, Count: 17}
	folds := ds.KFold(3)
	if len(folds) != 3 {
		t.Fatalf("got %d folds", len(folds))
	}
	totalTest := 0
	for _, f := range folds {
		totalTest += f.Test.Count
		if f.Train.Count+f.Test.Count != ds.Count {
			t.Error("fold does not partition the dataset")
		}
	}
	if totalTest != ds.Count {
		t.Errorf("test folds cover %d of %d vectors", totalTest, ds.Count)
	}
	if ds.KFold(1) != nil {
		t.Error("k<2 should return nil")
	}
}

func TestCrossValidatedClassification(t *testing.T) {
	// The ref [14] protocol in miniature: 3-fold cross-validation over a
	// mixed beat population; pooled accuracy must stay high.
	recs := ecg.GenerateSet(ecg.Config{
		Duration: 90,
		Rhythm:   ecg.RhythmConfig{PVCRate: 0.1, APBRate: 0.06},
	}, 120, 3)
	w := DefaultBeatWindow(256)
	rng := rand.New(rand.NewSource(20))
	rp, _ := NewRPMatrix(16, w.Len(), rng)
	ds, err := BuildDataset(recs, 0, w, rp)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := CrossValidate(rp, ds, 3, TrainConfig{PrototypesPerClass: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if acc := cm.Accuracy(); acc < 0.9 {
		t.Errorf("cross-validated accuracy %.3f", acc)
	}
	totalScored := 0
	for _, row := range cm.Counts {
		for _, n := range row {
			totalScored += n
		}
	}
	if totalScored != ds.Count {
		t.Errorf("scored %d of %d beats", totalScored, ds.Count)
	}
}

// The accessors below are read only by the tests; the node predicts
// through PredictProjected.

// Classes returns the trained class labels in ascending order.
func (c *Classifier) Classes() []int {
	out := make([]int, len(c.classes))
	copy(out, c.classes)
	return out
}

// Memberships returns the fuzzy membership of the projected feature
// vector in every class, keyed by label.
func (c *Classifier) Memberships(z []float64) map[int]float64 {
	out := make(map[int]float64, len(c.classes))
	for _, label := range c.classes {
		best := 0.0
		for _, p := range c.protos[label] {
			u := sqDist(z, p.Center) * p.InvTwoSigma2
			if v := c.kernel(u); v > best {
				best = v
			}
		}
		out[label] = best
	}
	return out
}
