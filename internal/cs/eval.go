package cs

import (
	"math"
	"math/rand"

	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

// This file is the Figure 5 harness: sweep the compression ratio and
// report the averaged output SNR over a record set, for independent
// single-lead recovery and joint multi-lead recovery.

// SweepPoint is one (CR, SNR) sample of the quality curve.
type SweepPoint struct {
	CR        float64
	SNRSingle float64
	SNRMulti  float64
}

// SweepConfig parameterises the CR sweep. Windows are sweepWindow
// samples and Φ has Density nonzeros per column, as on the node.
type SweepConfig struct {
	// Solver configures the FISTA decoders.
	Solver SolverConfig
	// Seed drives sensing-matrix generation.
	Seed int64
	// MaxWindowsPerRecord bounds work per record (default 4).
	MaxWindowsPerRecord int
}

// sweepWindow is the sweep's CS window length n.
const sweepWindow = 512

func (c SweepConfig) withDefaults() SweepConfig {
	out := c
	if out.MaxWindowsPerRecord <= 0 {
		out.MaxWindowsPerRecord = 4
	}
	return out
}

// windowsOf cuts the first maxW non-overlapping n-sample windows from
// every lead of the record (clean leads: reconstruction quality is
// scored against what was encoded).
func windowsOf(rec *ecg.Record, n, maxW int) [][][]float64 {
	var out [][][]float64 // [window][lead][sample]
	total := rec.Len()
	for w := 0; w < maxW; w++ {
		start := w * n
		if start+n > total {
			break
		}
		leads := make([][]float64, len(rec.Leads))
		for li := range rec.Leads {
			leads[li] = rec.Clean[li][start : start+n]
		}
		out = append(out, leads)
	}
	return out
}

// EvaluateCR measures the averaged single-lead and multi-lead output SNR
// at one compression ratio over the record set. Each lead channel has its
// own sparse-binary sensing matrix (one seed per read-out channel, as the
// distributed-CS setting of ref [6] allows); the single-lead strategy
// decodes each lead independently (a one-lead joint solve per lead)
// from the same measurements the joint strategy uses, so the comparison
// isolates the reconstruction model.
func EvaluateCR(records []*ecg.Record, cr float64, cfg SweepConfig) (SweepPoint, error) {
	c := cfg.withDefaults()
	n := sweepWindow
	m := MeasurementsForCR(n, cr)
	rng := rand.New(rand.NewSource(c.Seed))
	numLeads := 3
	if len(records) > 0 {
		numLeads = len(records[0].Leads)
	}
	phis := make([]Matrix, numLeads)
	encs := make([]*Encoder, numLeads)
	for l := 0; l < numLeads; l++ {
		phi, err := NewSparseBinary(m, n, minInt(Density, m), rng)
		if err != nil {
			return SweepPoint{}, err
		}
		phis[l] = phi
		encs[l] = NewEncoder(phi)
	}
	dec, err := NewJointDecoder(phis, c.Solver)
	if err != nil {
		return SweepPoint{}, err
	}
	var snrS, snrM []float64
	for _, rec := range records {
		for _, leads := range windowsOf(rec, n, c.MaxWindowsPerRecord) {
			ys := make([][]float64, len(leads))
			for li := range leads {
				ys[li] = encs[minInt(li, numLeads-1)].Encode(leads[li])
			}
			xs, err := dec.ReconstructLeads(ys)
			if err != nil {
				return SweepPoint{}, err
			}
			for li := range leads {
				snrS = append(snrS, clampSNR(dsp.SNRdB(leads[li], xs[li])))
			}
			xj, err := dec.ReconstructJoint(ys)
			if err != nil {
				return SweepPoint{}, err
			}
			for li := range leads {
				snrM = append(snrM, clampSNR(dsp.SNRdB(leads[li], xj[li])))
			}
		}
	}
	return SweepPoint{CR: cr, SNRSingle: dsp.Mean(snrS), SNRMulti: dsp.Mean(snrM)}, nil
}

// clampSNR bounds pathological per-window values so averages stay
// meaningful (a perfectly reconstructed near-zero window gives +Inf).
func clampSNR(v float64) float64 {
	if math.IsInf(v, 1) || v > 60 {
		return 60
	}
	if math.IsInf(v, -1) || v < -10 {
		return -10
	}
	return v
}

// Sweep evaluates a list of compression ratios and returns the quality
// curve, the paper's Figure 5.
func Sweep(records []*ecg.Record, crs []float64, cfg SweepConfig) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(crs))
	for _, cr := range crs {
		pt, err := EvaluateCR(records, cr, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// CrossingCR interpolates the compression ratio at which the quality
// curve falls to the target SNR (the paper reports the CR where the
// averaged SNR crosses 20 dB: 65.9 single-lead, 72.7 multi-lead). The
// curve must be sampled on increasing CR; it returns NaN when the target
// is never crossed.
func CrossingCR(points []SweepPoint, target float64, multi bool) float64 {
	val := func(p SweepPoint) float64 {
		if multi {
			return p.SNRMulti
		}
		return p.SNRSingle
	}
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		va, vb := val(a), val(b)
		if (va >= target && vb < target) || (va > target && vb <= target) {
			// Linear interpolation between the bracketing samples.
			frac := (va - target) / (va - vb)
			return a.CR + frac*(b.CR-a.CR)
		}
	}
	return math.NaN()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
