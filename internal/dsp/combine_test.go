package dsp

import (
	"math"
	"math/rand"
	"testing"

	"wbsn/internal/fixedpt"
)

func TestCombineRMSBasic(t *testing.T) {
	leads := [][]float64{
		{3, 0, 1},
		{4, 0, 1},
	}
	got := CombineRMS(leads)
	want := []float64{math.Sqrt(12.5), 0, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("CombineRMS[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if CombineRMS(nil) != nil {
		t.Error("empty lead set should return nil")
	}
}

func TestCombineRMSSingleLeadIsAbs(t *testing.T) {
	lead := []float64{1, -2, 3, -4}
	got := CombineRMS([][]float64{lead})
	for i, v := range lead {
		if got[i] != math.Abs(v) {
			t.Errorf("single-lead RMS[%d] = %v, want |%v|", i, got[i], v)
		}
	}
}

func TestCombineRMSImprovesSNR(t *testing.T) {
	// The reason ref [11] uses RMS combination: uncorrelated noise across
	// leads averages down while the common cardiac component survives.
	rng := rand.New(rand.NewSource(42))
	n := 4096
	clean := make([]float64, n)
	for i := range clean {
		clean[i] = math.Abs(2 * math.Sin(2*math.Pi*float64(i)/256))
	}
	mkLead := func() []float64 {
		l := make([]float64, n)
		for i := range l {
			l[i] = clean[i] + 0.3*rng.NormFloat64()
		}
		return l
	}
	leads := [][]float64{mkLead(), mkLead(), mkLead()}
	combined := CombineRMS(leads)
	snrSingle := SNRdB(clean, leads[0])
	// RMS of |clean + noise| is biased but tracks clean; compare residual
	// variance instead of absolute SNR.
	resSingle := RMSE(clean, leads[0])
	resComb := RMSE(clean, combined)
	if resComb >= resSingle {
		t.Errorf("RMS combination did not reduce noise: %v >= %v (single-lead SNR %v dB)",
			resComb, resSingle, snrSingle)
	}
}

func TestCombineRMSQ15MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 256
	fl := make([][]float64, 3)
	qs := make([][]fixedpt.Q15, 3)
	for l := range fl {
		fl[l] = make([]float64, n)
		for i := range fl[l] {
			fl[l][i] = rng.Float64()*1.6 - 0.8
		}
		qs[l] = fixedpt.FromSlice(fl[l])
	}
	want := CombineRMS(fl)
	got := CombineRMSQ15(qs)
	for i := range want {
		if math.Abs(got[i].Float()-want[i]) > 0.002 {
			t.Errorf("Q15 RMS[%d] = %v, want %v", i, got[i].Float(), want[i])
		}
	}
	if CombineRMSQ15(nil) != nil {
		t.Error("empty Q15 lead set should return nil")
	}
}

func TestCombineMean(t *testing.T) {
	got := CombineMean([][]float64{{1, 2}, {3, 4}})
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("CombineMean = %v", got)
	}
	if CombineMean(nil) != nil {
		t.Error("empty mean combine should be nil")
	}
}

func TestCombineMaxAbs(t *testing.T) {
	got := CombineMaxAbs([][]float64{{1, -5, 2}, {-3, 4, 2}})
	want := []float64{-3, -5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CombineMaxAbs[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if CombineMaxAbs(nil) != nil {
		t.Error("empty maxabs combine should be nil")
	}
}

func TestCombinePanicsOnMismatch(t *testing.T) {
	bad := [][]float64{{1, 2}, {1}}
	for name, fn := range map[string]func(){
		"RMS":    func() { CombineRMS(bad) },
		"Mean":   func() { CombineMean(bad) },
		"MaxAbs": func() { CombineMaxAbs(bad) },
		"Q15":    func() { CombineRMSQ15([][]fixedpt.Q15{{1, 2}, {1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Combine%s should panic on ragged leads", name)
				}
			}()
			fn()
		}()
	}
}

// The combiners below are not run by any program. CombineRMSQ15 is kept
// as the integer form of CombineRMS, CombineMean and CombineMaxAbs as the
// alternatives ref [11] compares RMS aggregation with.

// CombineRMSQ15 is the integer-only variant of CombineRMS: each
// sample is sqrt(mean of squares) computed with the wide-accumulator MAC
// pattern and the bit-by-bit integer square root from internal/fixedpt.
// It panics on lead length mismatch; an empty set returns nil.
func CombineRMSQ15(leads [][]fixedpt.Q15) []fixedpt.Q15 {
	if len(leads) == 0 {
		return nil
	}
	n := len(leads[0])
	for _, l := range leads[1:] {
		if len(l) != n {
			panic("dsp: CombineRMSQ15 lead length mismatch")
		}
	}
	out := make([]fixedpt.Q15, n)
	m := uint64(len(leads))
	for i := 0; i < n; i++ {
		var acc uint64
		for _, l := range leads {
			v := int64(l[i])
			acc += uint64(v * v) // Q30 each
		}
		mean := acc / m               // Q30
		root := fixedpt.ISqrt64(mean) // sqrt of Q30 value is Q15
		if root > 32767 {
			root = 32767
		}
		out[i] = fixedpt.Q15(root)
	}
	return out
}

// CombineMean aggregates leads by per-sample arithmetic mean (baseline
// strategy compared against RMS in ref [11]). Panics on length mismatch.
func CombineMean(leads [][]float64) []float64 {
	if len(leads) == 0 {
		return nil
	}
	n := len(leads[0])
	for _, l := range leads[1:] {
		if len(l) != n {
			panic("dsp: CombineMean lead length mismatch")
		}
	}
	out := make([]float64, n)
	inv := 1 / float64(len(leads))
	for i := 0; i < n; i++ {
		s := 0.0
		for _, l := range leads {
			s += l[i]
		}
		out[i] = s * inv
	}
	return out
}

// CombineMaxAbs aggregates leads by taking, per sample, the value with the
// largest magnitude across leads (sign preserved). Another light-weight
// combiner evaluated in the comparative study of ref [11].
func CombineMaxAbs(leads [][]float64) []float64 {
	if len(leads) == 0 {
		return nil
	}
	n := len(leads[0])
	for _, l := range leads[1:] {
		if len(l) != n {
			panic("dsp: CombineMaxAbs lead length mismatch")
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		best := leads[0][i]
		for _, l := range leads[1:] {
			if math.Abs(l[i]) > math.Abs(best) {
				best = l[i]
			}
		}
		out[i] = best
	}
	return out
}
