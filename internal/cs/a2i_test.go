package cs

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

func TestNewA2IValidation(t *testing.T) {
	if _, err := NewA2I(A2IConfig{Window: 0, Measurements: 10}); err != ErrA2I {
		t.Error("zero window should fail")
	}
	if _, err := NewA2I(A2IConfig{Window: 64, Measurements: 100}); err != ErrA2I {
		t.Error("m > n should fail")
	}
	if _, err := NewA2I(A2IConfig{Window: 64, Measurements: 16, LeakPerSample: 1}); err != ErrA2I {
		t.Error("full leak should fail")
	}
	if _, err := NewA2I(A2IConfig{Window: 64, Measurements: 16, GainSigma: -1}); err != ErrA2I {
		t.Error("negative gain sigma should fail")
	}
}

func TestA2IIdealMatchesMatrix(t *testing.T) {
	a, err := NewA2I(A2IConfig{Window: 128, Measurements: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 128)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y, err := a.Convert(x)
	if err != nil {
		t.Fatal(err)
	}
	yMat := make([]float64, 32)
	a.Matrix().Apply(x, yMat)
	for i := range y {
		if math.Abs(y[i]-yMat[i]) > 1e-9 {
			t.Fatalf("ideal A2I measurement %d = %v, matrix %v", i, y[i], yMat[i])
		}
	}
	if a.ConversionsPerWindow() != 32 {
		t.Error("conversion count wrong")
	}
	if _, err := a.Convert(make([]float64, 100)); err != ErrA2I {
		t.Error("bad window length should fail")
	}
}

func TestA2IReconstruction(t *testing.T) {
	// End-to-end: analog conversion at CR 50, digital reconstruction
	// through the ideal chip matrix.
	rec := ecg.Generate(ecg.Config{Seed: 31, Duration: 5})
	x := rec.Clean[0][:512]
	m := MeasurementsForCR(512, 50)
	a, err := NewA2I(A2IConfig{Window: 512, Measurements: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	y, err := a.Convert(x)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(a.Matrix(), SolverConfig{Iters: 150, Reweights: 1})
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := dec.Reconstruct(y)
	if err != nil {
		t.Fatal(err)
	}
	if snr := dsp.SNRdB(x, xhat); snr < 18 {
		t.Errorf("ideal A2I reconstruction %.1f dB at CR 50", snr)
	}
}

func TestA2IImperfectionsDegradeQuality(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 32, Duration: 5})
	x := rec.Clean[0][:512]
	m := MeasurementsForCR(512, 50)
	run := func(cfg A2IConfig) float64 {
		cfg.Window = 512
		cfg.Measurements = m
		cfg.Seed = 5
		a, err := NewA2I(cfg)
		if err != nil {
			t.Fatal(err)
		}
		y, err := a.Convert(x)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(a.Matrix(), SolverConfig{Iters: 120})
		if err != nil {
			t.Fatal(err)
		}
		xhat, err := dec.Reconstruct(y)
		if err != nil {
			t.Fatal(err)
		}
		return dsp.SNRdB(x, xhat)
	}
	ideal := run(A2IConfig{})
	leaky := run(A2IConfig{LeakPerSample: 0.01})
	mismatched := run(A2IConfig{GainSigma: 0.10})
	if leaky >= ideal {
		t.Errorf("integrator leak should degrade quality: %v vs %v", leaky, ideal)
	}
	if mismatched >= ideal {
		t.Errorf("gain mismatch should degrade quality: %v vs %v", mismatched, ideal)
	}
	// The "A2I remains a challenge" observation: realistic imperfections
	// cost several dB.
	if ideal-leaky < 1 {
		t.Errorf("1%% leak cost only %.2f dB; model too forgiving", ideal-leaky)
	}
}

func TestQuantizerBasics(t *testing.T) {
	if _, err := NewQuantizer(1, 1); err == nil {
		t.Error("1-bit quantiser should fail")
	}
	if _, err := NewQuantizer(8, 0); err == nil {
		t.Error("zero scale should fail")
	}
	q, err := NewQuantizer(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.bits != 8 {
		t.Error("Bits accessor wrong")
	}
	// Round trip within half an LSB.
	lsb := 2.0 / 128
	for _, v := range []float64{0, 0.5, -0.5, 1.9, -1.9} {
		got := q.Dequantize(q.Quantize(v))
		if math.Abs(got-v) > lsb {
			t.Errorf("quantise round trip of %v = %v", v, got)
		}
	}
	// Clipping at full scale.
	if q.Dequantize(q.Quantize(5)) > 2 {
		t.Error("positive overload should clip")
	}
	if q.Dequantize(q.Quantize(-5)) < -2.1 {
		t.Error("negative overload should clip")
	}
}

func TestQuantizeSlicePayload(t *testing.T) {
	q, _ := NewQuantizer(12, 1)
	y := make([]float64, 100)
	_, bytes := q.QuantizeSlice(y)
	if bytes != (100*12+7)/8 {
		t.Errorf("payload = %d bytes", bytes)
	}
}

func TestAutoScale(t *testing.T) {
	if AutoScale(nil, 1.2) != 1 {
		t.Error("empty input should give scale 1")
	}
	if AutoScale([]float64{0, 0}, 1.2) != 1 {
		t.Error("zero input should give scale 1")
	}
	if got := AutoScale([]float64{-3, 2}, 1.5); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("AutoScale = %v, want 4.5", got)
	}
	if got := AutoScale([]float64{1}, 0.5); got != 1 {
		t.Errorf("headroom below 1 should clamp: %v", got)
	}
}

func TestQuantizedReconstructionBitsSweep(t *testing.T) {
	// More bits per measurement, better reconstruction — saturating at
	// the unquantised quality.
	rec := ecg.Generate(ecg.Config{Seed: 33, Duration: 5})
	x := rec.Clean[0][:512]
	m := MeasurementsForCR(512, 50)
	rng := rand.New(rand.NewSource(6))
	phi, _ := NewSparseBinary(m, 512, 4, rng)
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 120})
	if err != nil {
		t.Fatal(err)
	}
	y := enc.Encode(x)
	scale := AutoScale(y, 1.1)
	var prev float64 = math.Inf(-1)
	for _, bits := range []int{4, 8, 12} {
		q, err := NewQuantizer(bits, scale)
		if err != nil {
			t.Fatal(err)
		}
		yq, _ := q.QuantizeSlice(y)
		xhat, err := dec.Reconstruct(yq)
		if err != nil {
			t.Fatal(err)
		}
		snr := dsp.SNRdB(x, xhat)
		if snr < prev-1 {
			t.Errorf("quality fell from %.1f to %.1f dB when bits rose to %d", prev, snr, bits)
		}
		prev = snr
	}
	if prev < 15 {
		t.Errorf("12-bit quantised reconstruction only %.1f dB", prev)
	}
}

// The A2I below models the "analog CS" direction of Section III.A: "This
// so-called 'analog CS', where compression occurs directly in the analog
// sensor readout electronics prior to analog-to-digital conversion,
// could thus be of great importance ... although designing a truly
// CS-based A2I still remains a challenge" (refs [7][8]).
//
// The analog-to-information converter is modelled behaviourally: each
// measurement integrates the sensor signal through a ±1 chipping
// sequence (random demodulator) and digitises only the m integrals, so
// the expensive instrumentation path runs m conversions per window
// instead of n. The model exposes exactly what the energy accounting
// needs — conversions per window and integrator imperfections (gain
// error, integrator leakage, comparator noise) that bound the achievable
// reconstruction quality. No program runs it; the tests here measure
// what its imperfections cost.

// ErrA2I is returned for invalid A2I configurations.
var ErrA2I = errors.New("cs: invalid A2I configuration")

// A2IConfig parameterises the analog front-end model.
type A2IConfig struct {
	// Window is the input length n per compression window.
	Window int
	// Measurements is m, the number of integrate-and-dump channels.
	Measurements int
	// GainSigma is the per-channel multiplicative gain mismatch (σ of a
	// lognormal-ish 1+N(0,σ)); 0 = ideal.
	GainSigma float64
	// LeakPerSample is the fraction of the integrator state lost per
	// input sample (integrator droop); 0 = ideal.
	LeakPerSample float64
	// NoiseSigma is additive noise per measurement, relative to a
	// unit-amplitude input; 0 = ideal.
	NoiseSigma float64
	// Seed draws the chipping sequences and imperfections.
	Seed int64
}

// A2I is a behavioural analog-to-information converter.
type A2I struct {
	cfg   A2IConfig
	chips [][]int8 // ±1 per (measurement, sample)
	gains []float64
	rng   *rand.Rand
}

// NewA2I validates the configuration and draws the chipping sequences.
func NewA2I(cfg A2IConfig) (*A2I, error) {
	if cfg.Window <= 0 || cfg.Measurements <= 0 || cfg.Measurements > cfg.Window {
		return nil, ErrA2I
	}
	if cfg.GainSigma < 0 || cfg.LeakPerSample < 0 || cfg.LeakPerSample >= 1 || cfg.NoiseSigma < 0 {
		return nil, ErrA2I
	}
	a := &A2I{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	a.chips = make([][]int8, cfg.Measurements)
	for i := range a.chips {
		row := make([]int8, cfg.Window)
		for j := range row {
			if a.rng.Intn(2) == 0 {
				row[j] = 1
			} else {
				row[j] = -1
			}
		}
		a.chips[i] = row
	}
	a.gains = make([]float64, cfg.Measurements)
	for i := range a.gains {
		a.gains[i] = 1 + cfg.GainSigma*a.rng.NormFloat64()
	}
	return a, nil
}

// Convert integrates one analog window (represented by its ideal sampled
// values) through the chipping channels and returns the m digitised
// measurements, applying the configured imperfections.
func (a *A2I) Convert(x []float64) ([]float64, error) {
	if len(x) != a.cfg.Window {
		return nil, ErrA2I
	}
	y := make([]float64, a.cfg.Measurements)
	retain := 1 - a.cfg.LeakPerSample
	for i, row := range a.chips {
		acc := 0.0
		for j, v := range x {
			acc = acc*retain + float64(row[j])*v
		}
		y[i] = a.gains[i]*acc + a.cfg.NoiseSigma*a.rng.NormFloat64()
	}
	return y, nil
}

// Matrix returns the ideal (imperfection-free) sensing operator realised
// by the chipping sequences, for receiver-side reconstruction. With
// integrator leak the true physical operator differs — the mismatch is
// part of what the A2I ablation measures.
func (a *A2I) Matrix() Matrix {
	return &chipMatrix{chips: a.chips, n: a.cfg.Window}
}

// ConversionsPerWindow returns the ADC conversion count per window (m),
// against n for a conventional sample-then-compress front end — the
// energy argument for analog CS.
func (a *A2I) ConversionsPerWindow() int { return a.cfg.Measurements }

// chipMatrix applies the ±1 chipping sequences as a dense sensing
// operator, scaled by 1/√n for unit-ish column norms.
type chipMatrix struct {
	chips [][]int8
	n     int
}

// Rows returns the measurement count.
func (c *chipMatrix) Rows() int { return len(c.chips) }

// Cols returns the window length.
func (c *chipMatrix) Cols() int { return c.n }

// Apply computes y = Φx.
func (c *chipMatrix) Apply(x, y []float64) {
	for i, row := range c.chips {
		acc := 0.0
		for j, v := range x {
			acc += float64(row[j]) * v
		}
		y[i] = acc
	}
}

// ApplyT computes z = Φᵀr.
func (c *chipMatrix) ApplyT(r, z []float64) {
	for j := range z {
		z[j] = 0
	}
	for i, row := range c.chips {
		ri := r[i]
		if ri == 0 {
			continue
		}
		for j := range z {
			z[j] += float64(row[j]) * ri
		}
	}
}
