package ecg_test

import (
	"testing"

	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/morpho"
)

// BenchmarkDatabaseDelineation runs the Text-1 evaluation over the full
// 16-subject synthetic library (varying heart rates, wide-QRS,
// low-voltage, tall-T, ectopy, noise and AF) — the "averaged over all
// records" protocol of the clinical-database studies the paper cites.
func BenchmarkDatabaseDelineation(b *testing.B) {
	db := ecg.GenerateDatabase(30, 500)
	wd, err := delineation.NewWaveletDelineator(delineation.Config{Fs: 256})
	if err != nil {
		b.Fatal(err)
	}
	var total delineation.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = delineation.Report{}
		for _, rec := range db {
			filtered, err := morpho.FilterLeads(rec.Leads, morpho.FilterConfig{Fs: 256})
			if err != nil {
				b.Fatal(err)
			}
			beats, err := wd.Delineate(dsp.CombineRMS(filtered))
			if err != nil {
				b.Fatal(err)
			}
			total = delineation.Merge(total, delineation.Evaluate(rec, beats, delineation.DefaultTolerances()))
		}
	}
	b.ReportMetric(100*total.R.Se(), "%Se-R")
	b.ReportMetric(100*total.R.PPV(), "%PPV-R")
	b.ReportMetric(100*total.TPeak.Se(), "%Se-Tpeak")
	if total.R.Se() < 0.95 || total.R.PPV() < 0.95 {
		b.Errorf("database-wide QRS detection Se=%.3f PPV=%.3f", total.R.Se(), total.R.PPV())
	}
}
