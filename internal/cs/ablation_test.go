package cs

import (
	"math/rand"
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

// BenchmarkAblationPhiDensity sweeps the sparse-binary sensing density d
// (ref [16]: few non-zeros suffice): reconstruction quality at CR 60 for
// d = 2, 4, 8 against a dense Gaussian matrix.
func BenchmarkAblationPhiDensity(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 77, Duration: 5})
	x := rec.Clean[0][:512]
	m := MeasurementsForCR(512, 60)
	run := func(phi Matrix) float64 {
		enc := NewEncoder(phi)
		dec, err := NewDecoder(phi, SolverConfig{Iters: 120})
		if err != nil {
			b.Fatal(err)
		}
		xhat, err := dec.Reconstruct(enc.Encode(x))
		if err != nil {
			b.Fatal(err)
		}
		return dsp.SNRdB(x, xhat)
	}
	var snrs [4]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(5))
		for j, d := range []int{2, 4, 8} {
			phi, err := NewSparseBinary(m, 512, d, rng)
			if err != nil {
				b.Fatal(err)
			}
			snrs[j] = run(phi)
		}
		g, err := NewGaussian(m, 512, rng)
		if err != nil {
			b.Fatal(err)
		}
		snrs[3] = run(g)
	}
	b.ReportMetric(snrs[0], "SNR-d2")
	b.ReportMetric(snrs[1], "SNR-d4")
	b.ReportMetric(snrs[2], "SNR-d8")
	b.ReportMetric(snrs[3], "SNR-gauss")
	// The ref [16] claim: d=4 within a few dB of the dense matrix.
	if snrs[1] < snrs[3]-6 {
		b.Errorf("sparse d=4 (%.1f dB) far below dense Gaussian (%.1f dB)", snrs[1], snrs[3])
	}
}

// BenchmarkAblationSolverVariants compares the reconstruction quality of
// plain FISTA, reweighted FISTA, tree-model IHT (ref [17]) and the OMP
// baseline at the paper's single-lead operating point.
func BenchmarkAblationSolverVariants(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 88, Duration: 5})
	x := rec.Clean[0][:512]
	m := MeasurementsForCR(512, 65.9)
	rng := rand.New(rand.NewSource(12))
	phi, err := NewSparseBinary(m, 512, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoder(phi)
	y := enc.Encode(x)
	var snrs [4]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err := NewDecoder(phi, SolverConfig{Iters: 150})
		if err != nil {
			b.Fatal(err)
		}
		rw, err := NewDecoder(phi, SolverConfig{Iters: 150, Reweights: 2})
		if err != nil {
			b.Fatal(err)
		}
		x0, err := plain.Reconstruct(y)
		if err != nil {
			b.Fatal(err)
		}
		x1, err := rw.Reconstruct(y)
		if err != nil {
			b.Fatal(err)
		}
		x2, err := rw.TreeIHT(y, levels, 80, 150)
		if err != nil {
			b.Fatal(err)
		}
		x3, err := rw.OMP(y, levels, 80, 1e-5)
		if err != nil {
			b.Fatal(err)
		}
		snrs[0] = dsp.SNRdB(x, x0)
		snrs[1] = dsp.SNRdB(x, x1)
		snrs[2] = dsp.SNRdB(x, x2)
		snrs[3] = dsp.SNRdB(x, x3)
	}
	b.ReportMetric(snrs[0], "SNR-fista")
	b.ReportMetric(snrs[1], "SNR-reweighted")
	b.ReportMetric(snrs[2], "SNR-treeIHT")
	b.ReportMetric(snrs[3], "SNR-omp")
}

// BenchmarkAblationQuantBits sweeps the bits-per-measurement payload
// quantisation (the Figure 6 payload knob).
func BenchmarkAblationQuantBits(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 89, Duration: 5})
	x := rec.Clean[0][:512]
	m := MeasurementsForCR(512, 60)
	rng := rand.New(rand.NewSource(13))
	phi, err := NewSparseBinary(m, 512, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 120})
	if err != nil {
		b.Fatal(err)
	}
	y := enc.Encode(x)
	scale := AutoScale(y, 1.1)
	results := map[int]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{4, 8, 12} {
			q, err := NewQuantizer(bits, scale)
			if err != nil {
				b.Fatal(err)
			}
			yq, _ := q.QuantizeSlice(y)
			xhat, err := dec.Reconstruct(yq)
			if err != nil {
				b.Fatal(err)
			}
			results[bits] = dsp.SNRdB(x, xhat)
		}
	}
	b.ReportMetric(results[4], "SNR-4bit")
	b.ReportMetric(results[8], "SNR-8bit")
	b.ReportMetric(results[12], "SNR-12bit")
}
