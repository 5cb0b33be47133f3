package cs

import (
	"fmt"
	"math/rand"
	"testing"

	"wbsn/internal/ecg"
)

// BenchmarkFISTABatch measures the structure-of-arrays solver on W
// joint 3-lead windows of 512 samples, solved batch windows per call,
// at two operating points:
//
//   - batch=K: the engine point (CR 65.9, Tol 1e-3 early exit);
//   - cr60-tol0/batch=K: the wbsn-gateway defaults (CR 60, Tol 0, so
//     every window runs the fixed 2×150-iteration budget).
//
// windows/s is the records/s numerator the engine benchmarks inherit.
func BenchmarkFISTABatch(b *testing.B) {
	const n = 512
	const W = 8
	rec := ecg.Generate(ecg.Config{Seed: 23, Duration: float64(W*n)/256 + 1})
	points := []struct {
		name string
		cr   float64
		cfg  SolverConfig
	}{
		{"", 65.9, SolverConfig{Iters: 150, Reweights: 1, Tol: 1e-3}},
		{"cr60-tol0/", 60, SolverConfig{Iters: 150, Reweights: 1}},
	}
	for _, pt := range points {
		m := MeasurementsForCR(n, pt.cr)
		phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(23)))
		if err != nil {
			b.Fatal(err)
		}
		enc := NewEncoder(phi)
		meas := make([][][]float64, W)
		for w := 0; w < W; w++ {
			leads := make([][]float64, len(rec.Clean))
			for li := range rec.Clean {
				leads[li] = enc.Encode(rec.Clean[li][w*n : (w+1)*n])
			}
			meas[w] = leads
		}
		dec, err := NewDecoder(phi, pt.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sbatch=%d", pt.name, batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for at := 0; at < W; at += batch {
						end := at + batch
						if end > W {
							end = W
						}
						items := make([]*BatchItem, 0, batch)
						for w := at; w < end; w++ {
							items = append(items, &BatchItem{Y: meas[w]})
						}
						dec.ReconstructJointBatch(items)
						for _, it := range items {
							if it.Err != nil {
								b.Fatal(it.Err)
							}
						}
					}
				}
				windows := float64(b.N) * W
				b.ReportMetric(windows/b.Elapsed().Seconds(), "windows/s")
			})
		}
	}
}

// BenchmarkSensingBatch times one batched Φ and one batched Φᵀ over a
// 24-plane dispatch (8 joint 3-lead windows of 512 samples at CR 60,
// the node's Density), the two sensing sweeps of every FISTA gradient:
// applyBatch reduces the CSR rows and applyTBatch gathers the columns,
// three planes per tile.
func BenchmarkSensingBatch(b *testing.B) {
	const n, planes = 512, 24
	m := MeasurementsForCR(n, 60)
	phi, err := NewSparseBinary(m, n, Density, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	x := make([]float64, planes*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, planes*m)
	z := make([]float64, planes*n)
	list := make([]int, planes)
	for p := range list {
		list[p] = p
	}
	for b.Loop() {
		phi.applyBatch(x, n, y, m, list)
		phi.applyTBatch(y, m, z, n, list)
	}
}
