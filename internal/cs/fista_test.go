package cs

import (
	"math"
	"math/rand"
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/fixedpt"
	"wbsn/internal/wavelet"
)

// testWindow cuts one clean n-sample window per lead from a deterministic
// synthetic record.
func testWindow(n int, seed int64) [][]float64 {
	rec := ecg.Generate(ecg.Config{Seed: seed, Duration: float64(n)/256 + 2})
	leads := make([][]float64, len(rec.Clean))
	for i := range leads {
		leads[i] = rec.Clean[i][:n]
	}
	return leads
}

func TestEncoderBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	phi, _ := NewSparseBinary(128, 512, 4, rng)
	enc := NewEncoder(phi)
	if enc.WindowLen() != 512 || enc.Matrix().Rows() != 128 {
		t.Error("encoder dims wrong")
	}
	if enc.Matrix() != Matrix(phi) {
		t.Error("Matrix accessor broken")
	}
	if enc.MeasurementBytes(12) != (128*12+7)/8 {
		t.Errorf("MeasurementBytes = %d", enc.MeasurementBytes(12))
	}
	x := make([]float64, 512)
	x[0] = 1
	y := enc.Encode(x)
	if len(y) != 128 {
		t.Fatal("bad measurement length")
	}
}

func TestEncodePanicsOnBadLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	phi, _ := NewSparseBinary(16, 64, 2, rng)
	enc := NewEncoder(phi)
	defer func() {
		if recover() == nil {
			t.Error("Encode with wrong window length should panic")
		}
	}()
	enc.Encode(make([]float64, 63))
}

func TestEncodeQ15MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	phi, _ := NewSparseBinary(32, 128, 4, rng)
	enc := NewEncoder(phi)
	xf := make([]float64, 128)
	for i := range xf {
		xf[i] = rng.Float64()*1.2 - 0.6
	}
	xq := fixedpt.FromSlice(xf)
	yq := make([]int32, 32)
	enc.EncodeQ15(xq, yq)
	yf := enc.Encode(xf)
	// yq is unscaled (integer adds); yf = scaled by 1/sqrt(d). Compare
	// after normalising.
	scale := math.Sqrt(4) * 32768
	for i := range yf {
		if math.Abs(float64(yq[i])/scale-yf[i]) > 0.01 {
			t.Fatalf("measurement %d: int %v vs float %v", i, float64(yq[i])/scale, yf[i])
		}
	}
}

func TestEncodeQ15RequiresSparseBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, _ := NewGaussian(16, 64, rng)
	enc := NewEncoder(g)
	defer func() {
		if recover() == nil {
			t.Error("EncodeQ15 on Gaussian should panic")
		}
	}()
	enc.EncodeQ15(make([]fixedpt.Q15, 64), make([]int32, 16))
}

func TestNewDecoderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	phi, _ := NewSparseBinary(100, 300, 4, rng) // 300 not divisible by 2^5
	if _, err := NewDecoder(phi, SolverConfig{}); err != ErrSolver {
		t.Error("window not divisible by 2^levels should fail")
	}
}

// TestNewDecoderRejectsShortLevels: a 64-sample window at the 5 levels
// of the db8 basis leaves a 4-sample last level, which the DWT refuses.
// The decoder must refuse that geometry at construction rather than
// panic in its first reconstruction; 128 samples (an 8-sample last
// level) still build.
func TestNewDecoderRejectsShortLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	phi64, _ := NewSparseBinary(26, 64, 4, rng)
	if _, err := NewDecoder(phi64, SolverConfig{}); err != ErrSolver {
		t.Errorf("db8 over 64 samples at 5 levels: err = %v, want ErrSolver", err)
	}
	phi128, _ := NewSparseBinary(51, 128, 4, rng)
	dec, err := NewDecoder(phi128, SolverConfig{Iters: 5})
	if err != nil {
		t.Fatalf("db8 over 128 samples: %v", err)
	}
	if _, err := dec.ReconstructJoint([][]float64{make([]float64, 51)}); err != nil {
		t.Fatalf("128-sample reconstruction: %v", err)
	}
}

func TestReconstructLowCR(t *testing.T) {
	// At low compression (CR 25%) the reconstruction should be excellent.
	rng := rand.New(rand.NewSource(6))
	n := 512
	m := MeasurementsForCR(n, 25)
	phi, _ := NewSparseBinary(m, n, 4, rng)
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 150})
	if err != nil {
		t.Fatal(err)
	}
	leads := testWindow(n, 77)
	y := enc.Encode(leads[0])
	xhat, err := dec.Reconstruct(y)
	if err != nil {
		t.Fatal(err)
	}
	snr := dsp.SNRdB(leads[0], xhat)
	if snr < 20 {
		t.Errorf("SNR at CR 25%% = %.1f dB, want >= 20", snr)
	}
}

func TestReconstructRejectsBadLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	phi, _ := NewSparseBinary(64, 256, 4, rng)
	dec, _ := NewDecoder(phi, SolverConfig{Iters: 10})
	if _, err := dec.Reconstruct(make([]float64, 63)); err != ErrSolver {
		t.Error("wrong measurement length should fail")
	}
	if _, err := dec.ReconstructJoint(nil); err != ErrSolver {
		t.Error("empty lead set should fail")
	}
	if _, err := dec.ReconstructJoint([][]float64{make([]float64, 63)}); err != ErrSolver {
		t.Error("ragged joint measurement should fail")
	}
}

func TestSNRDegradesWithCR(t *testing.T) {
	// Monotone trend: more compression, lower quality.
	leads := testWindow(512, 101)
	var prev float64 = math.Inf(1)
	for _, cr := range []float64{30, 60, 90} {
		rng := rand.New(rand.NewSource(8))
		m := MeasurementsForCR(512, cr)
		phi, _ := NewSparseBinary(m, 512, 4, rng)
		enc := NewEncoder(phi)
		dec, err := NewDecoder(phi, SolverConfig{Iters: 120})
		if err != nil {
			t.Fatal(err)
		}
		xhat, err := dec.Reconstruct(enc.Encode(leads[0]))
		if err != nil {
			t.Fatal(err)
		}
		snr := dsp.SNRdB(leads[0], xhat)
		if snr > prev+2 { // allow small non-monotonic wiggle
			t.Errorf("SNR rose from %.1f to %.1f when CR increased to %v", prev, snr, cr)
		}
		prev = snr
	}
}

func TestJointBeatsIndependentAtHighCR(t *testing.T) {
	// The core claim of ref [6] / Figure 5: at high CR, joint multi-lead
	// recovery outperforms independent single-lead recovery.
	rng := rand.New(rand.NewSource(9))
	n := 512
	cr := 72.0
	m := MeasurementsForCR(n, cr)
	phis := make([]Matrix, 3)
	encs := make([]*Encoder, 3)
	for l := range phis {
		p, _ := NewSparseBinary(m, n, 4, rng)
		phis[l] = p
		encs[l] = NewEncoder(p)
	}
	dec, err := NewJointDecoder(phis, SolverConfig{Iters: 200})
	if err != nil {
		t.Fatal(err)
	}
	var sSingle, sJoint float64
	count := 0
	for seed := int64(300); seed < 303; seed++ {
		leads := testWindow(n, seed)
		ys := make([][]float64, len(leads))
		for li := range leads {
			ys[li] = encs[li].Encode(leads[li])
		}
		xi, err := dec.ReconstructLeads(ys)
		if err != nil {
			t.Fatal(err)
		}
		xj, err := dec.ReconstructJoint(ys)
		if err != nil {
			t.Fatal(err)
		}
		for li := range leads {
			sSingle += clampSNR(dsp.SNRdB(leads[li], xi[li]))
			sJoint += clampSNR(dsp.SNRdB(leads[li], xj[li]))
			count++
		}
	}
	sSingle /= float64(count)
	sJoint /= float64(count)
	if sJoint <= sSingle {
		t.Errorf("joint recovery (%.2f dB) should beat independent (%.2f dB) at CR %.0f",
			sJoint, sSingle, cr)
	}
}

func TestOMPReconstructsSparseSignal(t *testing.T) {
	// Exactly k-sparse coefficients: OMP should nail it with enough
	// measurements.
	rng := rand.New(rand.NewSource(10))
	n := 256
	w := wavelet.Daubechies8()
	theta := make([]float64, n)
	for i := 0; i < 8; i++ {
		theta[rng.Intn(n)] = rng.NormFloat64() * 2
	}
	x, err := inverseDWT(w, theta, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := 128
	phi, _ := NewGaussian(m, n, rng)
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := dec.OMP(enc.Encode(x), 4, 24, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if snr := dsp.SNRdB(x, xhat); snr < 40 {
		t.Errorf("OMP on 8-sparse signal: SNR %.1f dB, want >= 40", snr)
	}
}

func TestOMPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	phi, _ := NewSparseBinary(64, 256, 4, rng)
	dec, _ := NewDecoder(phi, SolverConfig{Iters: 10})
	if _, err := dec.OMP(make([]float64, 10), levels, 5, 0); err != ErrSolver {
		t.Error("bad measurement length should fail")
	}
	// Zero measurements reconstruct to zero.
	xhat, err := dec.OMP(make([]float64, 64), levels, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range xhat {
		if v != 0 {
			t.Fatal("zero measurements should give zero signal")
		}
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ v, th, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.v, c.th); got != c.want {
			t.Errorf("softThreshold(%v,%v) = %v, want %v", c.v, c.th, got, c.want)
		}
	}
}

func TestReweightingImprovesHighCRRecovery(t *testing.T) {
	// The iterative-reweighting passes (Candès-Wakin-Boyd) must buy
	// reconstruction quality at aggressive compression.
	rng := rand.New(rand.NewSource(15))
	n := 512
	m := MeasurementsForCR(n, 70)
	phi, _ := NewSparseBinary(m, n, 4, rng)
	enc := NewEncoder(phi)
	leads := testWindow(n, 512)
	y := enc.Encode(leads[0])
	plain, err := NewDecoder(phi, SolverConfig{Iters: 120})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := NewDecoder(phi, SolverConfig{Iters: 120, Reweights: 2})
	if err != nil {
		t.Fatal(err)
	}
	x0, err := plain.Reconstruct(y)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := rw.Reconstruct(y)
	if err != nil {
		t.Fatal(err)
	}
	s0 := dsp.SNRdB(leads[0], x0)
	s2 := dsp.SNRdB(leads[0], x2)
	if s2 <= s0 {
		t.Errorf("reweighting did not help: %.2f dB vs %.2f dB", s2, s0)
	}
	// Joint solver benefits as well.
	dec3, err := NewJointDecoder([]Matrix{phi}, SolverConfig{Iters: 120, Reweights: 2})
	if err != nil {
		t.Fatal(err)
	}
	ys := enc.EncodeLeads(leads)
	xj, err := dec3.ReconstructJoint(ys)
	if err != nil {
		t.Fatal(err)
	}
	plainJ, _ := NewJointDecoder([]Matrix{phi}, SolverConfig{Iters: 120})
	xj0, err := plainJ.ReconstructJoint(ys)
	if err != nil {
		t.Fatal(err)
	}
	var sRW, sPlain float64
	for li := range leads {
		sRW += clampSNR(dsp.SNRdB(leads[li], xj[li]))
		sPlain += clampSNR(dsp.SNRdB(leads[li], xj0[li]))
	}
	if sRW <= sPlain {
		t.Errorf("joint reweighting did not help: %.2f vs %.2f", sRW/3, sPlain/3)
	}
}

// The helpers below are read only by the tests. Programs call the
// multi-lead and batched entry points (ReconstructLeads,
// ReconstructJoint[Warm], ReconstructJointBatch); Reconstruct and
// ReconstructWarm are the one-lead forms the tests drive.

// MeasurementBytes returns the payload size in bytes for one encoded
// window at the given bits-per-measurement quantisation (the radio model
// of Figure 6 charges energy per transmitted byte).
func (e *Encoder) MeasurementBytes(bitsPerMeasurement int) int {
	bits := e.phi.Rows() * bitsPerMeasurement
	return (bits + 7) / 8
}

// Reconstruct solves min_θ ½||ΦΨθ − y||² + λ||Wθ||₁ with FISTA and
// returns x̂ = Ψθ̂, using lead 0's sensing matrix: a one-lead joint
// solve, whose ℓ2,1 penalty is the ℓ1 norm. λ is set relative to
// ||ΨᵀΦᵀy||∞ of the unit-RMS measurements.
func (d *Decoder) Reconstruct(y []float64) ([]float64, error) {
	x, _, err := d.ReconstructWarm(y, nil)
	return x, err
}

// ReconstructWarm is Reconstruct seeded from (and feeding) a WarmState:
// consecutive ECG windows are highly correlated, so the previous
// window's coefficients start the solver near the solution and the
// Tol-driven early exit converts that proximity into skipped
// iterations. Falls back to a cold start when the warm solve diverges.
// ws may be nil (plain cold solve with stats).
func (d *Decoder) ReconstructWarm(y []float64, ws *WarmState) ([]float64, SolveStats, error) {
	ys := [1][]float64{y}
	xs, st, err := d.ReconstructJointWarm(ys[:], ws)
	if err != nil {
		// ErrSolver is the solver's only error. Returning the sentinel
		// rather than err keeps ys on the stack: escape analysis does not
		// tell a BatchItem's Y from its Err, so returning err would move
		// ys to the heap and cost an allocation per window.
		return nil, st, ErrSolver
	}
	return xs[0], st, nil
}

// EncodeLeads compresses one window per lead with the shared sensing
// matrix (the multi-lead setting of ref [6] uses the same Φ on every
// lead so the receiver can exploit the common support).
func (e *Encoder) EncodeLeads(leads [][]float64) [][]float64 {
	out := make([][]float64, len(leads))
	for i, l := range leads {
		out[i] = e.Encode(l)
	}
	return out
}
