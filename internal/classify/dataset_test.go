package classify

import (
	"math/rand"
	"testing"

	"wbsn/internal/ecg"
)

// The dataset and cross-validation harness below evaluates the
// classifier the way ref [14] reports it. No program runs it: the node
// trains its classifier in core and only predicts.

// Dataset is a labelled set of projected beat features.
type Dataset struct {
	// ByClass maps a beat label (int(ecg.BeatLabel)) to feature vectors.
	ByClass map[int][][]float64
	// Count is the total number of beats.
	Count int
}

// BuildDataset extracts, normalises and projects every annotated beat of
// the records, keyed by its ground-truth label. Signals are taken from
// the given lead of each record. Beats whose window does not fit are
// skipped.
func BuildDataset(records []*ecg.Record, lead int, w BeatWindow, rp *RPMatrix) (*Dataset, error) {
	ds := &Dataset{ByClass: make(map[int][][]float64)}
	for _, rec := range records {
		if lead >= len(rec.Leads) {
			continue
		}
		x := rec.Leads[lead]
		for _, b := range rec.Beats {
			beat := w.Extract(x, b.Fid.RPeak)
			if beat == nil {
				continue
			}
			z, err := rp.Project(beat)
			if err != nil {
				return nil, err
			}
			ds.ByClass[int(b.Label)] = append(ds.ByClass[int(b.Label)], z)
			ds.Count++
		}
	}
	return ds, nil
}

// Split partitions the dataset into train and test subsets with the given
// train fraction, preserving per-class proportions (deterministic:
// the first ⌈frac·n⌉ of each class go to train).
func (d *Dataset) Split(frac float64) (train, test *Dataset) {
	train = &Dataset{ByClass: make(map[int][][]float64)}
	test = &Dataset{ByClass: make(map[int][][]float64)}
	for label, vecs := range d.ByClass {
		cut := int(frac*float64(len(vecs)) + 0.5)
		if cut < 1 {
			cut = 1
		}
		if cut > len(vecs) {
			cut = len(vecs)
		}
		train.ByClass[label] = vecs[:cut]
		test.ByClass[label] = vecs[cut:]
		train.Count += cut
		test.Count += len(vecs) - cut
	}
	return train, test
}

// ConfusionMatrix counts predictions: Counts[truth][predicted].
type ConfusionMatrix struct {
	Labels []int
	Counts map[int]map[int]int
}

// Evaluate classifies every test vector and tallies the confusion matrix.
func EvaluateClassifier(c *Classifier, test *Dataset) (*ConfusionMatrix, error) {
	cm := &ConfusionMatrix{Labels: c.Classes(), Counts: make(map[int]map[int]int)}
	for truth, vecs := range test.ByClass {
		if cm.Counts[truth] == nil {
			cm.Counts[truth] = make(map[int]int)
		}
		for _, z := range vecs {
			pred, _, err := c.PredictProjected(z)
			if err != nil {
				return nil, err
			}
			cm.Counts[truth][pred]++
		}
	}
	return cm, nil
}

// Accuracy returns overall fraction correct.
func (m *ConfusionMatrix) Accuracy() float64 {
	correct, total := 0, 0
	for truth, row := range m.Counts {
		for pred, n := range row {
			total += n
			if pred == truth {
				correct += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Sensitivity returns the per-class recall TP/(TP+FN) for the label.
func (m *ConfusionMatrix) Sensitivity(label int) float64 {
	row := m.Counts[label]
	total := 0
	for _, n := range row {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(row[label]) / float64(total)
}

// Specificity returns TN/(TN+FP) for the label (all other classes
// correctly not predicted as label).
func (m *ConfusionMatrix) Specificity(label int) float64 {
	tn, fp := 0, 0
	for truth, row := range m.Counts {
		if truth == label {
			continue
		}
		for pred, n := range row {
			if pred == label {
				fp += n
			} else {
				tn += n
			}
		}
	}
	if tn+fp == 0 {
		return 0
	}
	return float64(tn) / float64(tn+fp)
}

// KFold partitions the dataset into k folds per class (round-robin) and
// returns, for fold i, the training set (all other folds) and test set
// (fold i). Used for the cross-validated evaluation protocol of
// ref [14].
func (d *Dataset) KFold(k int) []struct{ Train, Test *Dataset } {
	if k < 2 {
		return nil
	}
	out := make([]struct{ Train, Test *Dataset }, k)
	for i := range out {
		out[i].Train = &Dataset{ByClass: make(map[int][][]float64)}
		out[i].Test = &Dataset{ByClass: make(map[int][][]float64)}
	}
	for label, vecs := range d.ByClass {
		for vi, v := range vecs {
			fold := vi % k
			for i := range out {
				if i == fold {
					out[i].Test.ByClass[label] = append(out[i].Test.ByClass[label], v)
					out[i].Test.Count++
				} else {
					out[i].Train.ByClass[label] = append(out[i].Train.ByClass[label], v)
					out[i].Train.Count++
				}
			}
		}
	}
	return out
}

// CrossValidate trains and evaluates over k folds, returning the pooled
// confusion matrix. Folds whose training set misses a class are skipped
// (their test beats are not scored).
func CrossValidate(rp *RPMatrix, d *Dataset, k int, cfg TrainConfig) (*ConfusionMatrix, error) {
	pooled := &ConfusionMatrix{Counts: make(map[int]map[int]int)}
	for _, fold := range d.KFold(k) {
		ok := true
		for label := range d.ByClass {
			if len(fold.Train.ByClass[label]) == 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		cl, err := Train(rp, fold.Train.ByClass, cfg)
		if err != nil {
			return nil, err
		}
		cl.UseLinExp = true
		cm, err := EvaluateClassifier(cl, fold.Test)
		if err != nil {
			return nil, err
		}
		pooled.Labels = cm.Labels
		for truth, row := range cm.Counts {
			if pooled.Counts[truth] == nil {
				pooled.Counts[truth] = make(map[int]int)
			}
			for pred, n := range row {
				pooled.Counts[truth][pred] += n
			}
		}
	}
	return pooled, nil
}

// BenchmarkRefClassificationTable reproduces the per-class evaluation
// style of ref [14]: 3-fold cross-validated sensitivity per beat class
// plus PVC specificity, on a mixed synthetic population.
func BenchmarkRefClassificationTable(b *testing.B) {
	recs := ecg.GenerateSet(ecg.Config{
		Duration: 120,
		Rhythm:   ecg.RhythmConfig{PVCRate: 0.1, APBRate: 0.06},
		Noise:    ecg.NoiseConfig{EMG: 0.02},
	}, 840, 3)
	w := DefaultBeatWindow(256)
	rng := rand.New(rand.NewSource(21))
	rp, err := NewRPMatrix(16, w.Len(), rng)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := BuildDataset(recs, 0, w, rp)
	if err != nil {
		b.Fatal(err)
	}
	var cm *ConfusionMatrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm, err = CrossValidate(rp, ds, 3, TrainConfig{PrototypesPerClass: 4, Seed: 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*cm.Accuracy(), "%accuracy")
	b.ReportMetric(100*cm.Sensitivity(int(ecg.LabelNormal)), "%Se-N")
	b.ReportMetric(100*cm.Sensitivity(int(ecg.LabelPVC)), "%Se-V")
	b.ReportMetric(100*cm.Sensitivity(int(ecg.LabelAPB)), "%Se-A")
	b.ReportMetric(100*cm.Specificity(int(ecg.LabelPVC)), "%Sp-V")
}
