package wavelet

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/morpho"
)

func TestDenoiseValidation(t *testing.T) {
	if _, err := Denoise(make([]float64, 100), DenoiseConfig{}); err != ErrLength {
		t.Error("non-divisible length should fail")
	}
}

func TestDenoiseImprovesSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1024
	clean := make([]float64, n)
	for p := 100; p < n-20; p += 220 {
		for i := -6; i <= 6; i++ {
			clean[p+i] += 1.2 * math.Exp(-float64(i*i)/8)
		}
	}
	noisy := make([]float64, n)
	for i := range noisy {
		noisy[i] = clean[i] + 0.12*rng.NormFloat64()
	}
	den, err := Denoise(noisy, DenoiseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var eNoisy, eDen float64
	for i := range clean {
		dN := noisy[i] - clean[i]
		dD := den[i] - clean[i]
		eNoisy += dN * dN
		eDen += dD * dD
	}
	gain := 10 * math.Log10(eNoisy/eDen)
	if gain < 4 {
		t.Errorf("denoising gain %.1f dB, want >= 4", gain)
	}
	// Peaks survive: the garrote keeps at least two thirds of each wave
	// amplitude at this noise level (soft thresholding loses far more —
	// the reason the garrote rule is used).
	for p := 100; p < n-20; p += 220 {
		if den[p] < 0.65*clean[p] {
			t.Errorf("peak at %d attenuated to %v", p, den[p])
		}
	}
}

func TestDenoiseCleanSignalNearIdentity(t *testing.T) {
	n := 512
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 128)
	}
	den, err := Denoise(x, DenoiseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range x {
		if d := math.Abs(den[i] - x[i]); d > worst {
			worst = d
		}
	}
	// A noise-free smooth signal has tiny fine-scale details; the MAD
	// estimate is near zero, so shrinkage barely changes it.
	if worst > 0.05 {
		t.Errorf("clean signal distorted by %v", worst)
	}
}

func TestMedianOfMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		cp := append([]float64(nil), x...)
		got := medianOf(cp)
		sort.Float64s(x)
		var want float64
		if n%2 == 1 {
			want = x[n/2]
		} else {
			want = (x[n/2-1] + x[n/2]) / 2
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("medianOf(n=%d) = %v, want %v", n, got, want)
		}
	}
	if medianOf(nil) != 0 || mad(nil) != 0 {
		t.Error("empty inputs should give 0")
	}
}

// Wavelet-shrinkage denoising is the transform-domain counterpart of
// the morphological noise suppression of Section III.B: the DWT
// concentrates the cardiac waves into few large coefficients while
// broadband noise spreads thinly, so soft-thresholding the detail bands
// removes noise with little morphological distortion. The noise level
// is estimated per band from the median absolute deviation (MAD) of the
// finest details, and the threshold follows the universal rule
// σ·√(2·ln n) (Donoho-Johnstone). No program runs it: the node
// conditions its leads morphologically, and BenchmarkAblationNoiseSuppression
// compares the two.

// DenoiseConfig parameterises wavelet shrinkage.
type DenoiseConfig struct {
	// Wavelet is the orthonormal basis (default Daubechies8).
	Wavelet *Orthogonal
	// Levels is the decomposition depth (default 4).
	Levels int
	// ThresholdScale multiplies the universal threshold (default 1.0).
	ThresholdScale float64
}

func (c DenoiseConfig) withDefaults() DenoiseConfig {
	out := c
	if out.Wavelet == nil {
		out.Wavelet = Daubechies8()
	}
	if out.Levels <= 0 {
		out.Levels = 4
	}
	if out.ThresholdScale <= 0 {
		out.ThresholdScale = 1
	}
	return out
}

// Denoise shrinks the detail bands of x with the non-negative garrote
// rule (v − thr²/v beyond the threshold, zero inside), which kills noise
// like soft thresholding but leaves large wave coefficients nearly
// unbiased, and reconstructs. The input length must be divisible by
// 2^levels; ErrLength otherwise.
func Denoise(x []float64, cfg DenoiseConfig) ([]float64, error) {
	c := cfg.withDefaults()
	coefs, err := c.Wavelet.Forward(x, c.Levels)
	if err != nil {
		return nil, err
	}
	bands, err := LevelSlices(len(x), c.Levels)
	if err != nil {
		return nil, err
	}
	// Noise estimate from the finest detail band (the last range):
	// σ = MAD / 0.6745.
	finest := coefs[bands[len(bands)-1][0]:bands[len(bands)-1][1]]
	sigma := mad(finest) / 0.6745
	thr := c.ThresholdScale * sigma * math.Sqrt(2*math.Log(float64(len(x))))
	// Garrote-shrink every detail band (leave the approximation).
	for _, b := range bands[1:] {
		for i := b[0]; i < b[1]; i++ {
			v := coefs[i]
			if v > thr || v < -thr {
				coefs[i] = v - thr*thr/v
			} else {
				coefs[i] = 0
			}
		}
	}
	return c.Wavelet.Inverse(coefs, c.Levels)
}

// mad returns the median absolute deviation of x.
func mad(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	abs := make([]float64, len(x))
	for i, v := range x {
		abs[i] = math.Abs(v)
	}
	return medianOf(abs)
}

// medianOf returns the median, destructively partial-sorting its input.
func medianOf(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	k := n / 2
	lo, hi := 0, n-1
	for lo < hi {
		pivot := x[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for x[j] > pivot {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	if n%2 == 1 {
		return x[k]
	}
	// Even length: average the two central order statistics; x[k] is the
	// upper one after selection, find the max of the lower half.
	lower := x[0]
	for _, v := range x[:k] {
		if v > lower {
			lower = v
		}
	}
	return (lower + x[k]) / 2
}

// BenchmarkAblationNoiseSuppression compares, on EMG-corrupted ECG, the
// morphological open/close average of ref [9] that the node runs with
// wavelet shrinkage and the 0.5-40 Hz monitoring band-pass.
func BenchmarkAblationNoiseSuppression(b *testing.B) {
	rec := ecg.Generate(ecg.Config{Seed: 92, Duration: 16, Noise: ecg.NoiseConfig{EMG: 0.06}})
	clean := rec.Clean[0]
	lead := rec.Leads[0]
	score := func(y []float64) float64 { return dsp.SNRdB(clean[256:len(clean)-256], y[256:len(y)-256]) }
	hp, err := dsp.Butterworth2Highpass(0.5, rec.Fs)
	if err != nil {
		b.Fatal(err)
	}
	lp, err := dsp.Butterworth2Lowpass(40, rec.Fs)
	if err != nil {
		b.Fatal(err)
	}
	bandpass := dsp.Chain{hp, lp}
	ym := make([]float64, len(lead))
	var scratch morpho.Scratch
	var snrIn, snrMorph, snrWave, snrBP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snrIn = score(lead)
		if err := morpho.SuppressNoiseInto(lead, morpho.FilterConfig{Fs: rec.Fs}, ym, &scratch); err != nil {
			b.Fatal(err)
		}
		snrMorph = score(ym)
		yw, err := Denoise(lead, DenoiseConfig{})
		if err != nil {
			b.Fatal(err)
		}
		snrWave = score(yw)
		snrBP = score(bandpass.Apply(lead))
	}
	b.ReportMetric(snrIn, "SNR-in")
	b.ReportMetric(snrMorph, "SNR-morph")
	b.ReportMetric(snrWave, "SNR-wavelet")
	b.ReportMetric(snrBP, "SNR-bandpass")
	if snrWave <= snrIn {
		b.Errorf("wavelet denoising did not improve SNR: %.1f <= %.1f", snrWave, snrIn)
	}
}
