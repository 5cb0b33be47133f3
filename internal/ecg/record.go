// Package ecg synthesises multi-lead electrocardiogram records with exact
// ground-truth annotations, standing in for the clinical databases
// (MIT-BIH style records) that the paper's evaluation uses but that are
// not available offline.
//
// The generator layers three models:
//
//   - a beat-morphology model: each characteristic wave (P, Q, R, S, T)
//     is a Gaussian hump with its own amplitude, width and offset from
//     the R peak, and its own spatial dipole direction so that multiple
//     leads see correlated but distinct projections (the property joint
//     multi-lead compressed sensing exploits, ref [6]);
//
//   - a rhythm model: normal sinus rhythm with physiological heart-rate
//     variability (Mayer-wave and respiratory-sinus-arrhythmia
//     components), atrial fibrillation with irregular RR intervals,
//     missing P waves and fibrillatory f-waves, and ectopic beats (PVC,
//     APB) injected at a configurable rate;
//
//   - noise models: baseline wander, electromyographic noise, powerline
//     interference and electrode-motion artifacts (Section II-III of the
//     paper discusses exactly these disturbance classes).
//
// Every stochastic choice flows from one *rand.Rand, so records are
// reproducible from their seed.
package ecg

import (
	"errors"
	"fmt"
)

// BeatLabel classifies a heartbeat, following the AAMI-style grouping
// used by the embedded classifier of ref [14].
type BeatLabel uint8

// Beat classes.
const (
	// LabelNormal is a normal sinus beat.
	LabelNormal BeatLabel = iota
	// LabelPVC is a premature ventricular contraction: wide QRS, no
	// preceding P wave, typically followed by a compensatory pause.
	LabelPVC
	// LabelAPB is an atrial premature beat: early, with a P wave and a
	// narrow QRS.
	LabelAPB
	// LabelAF marks a beat occurring during atrial fibrillation:
	// irregular RR, no P wave.
	LabelAF
)

// String returns the conventional single-letter code for the label.
func (l BeatLabel) String() string {
	switch l {
	case LabelNormal:
		return "N"
	case LabelPVC:
		return "V"
	case LabelAPB:
		return "A"
	case LabelAF:
		return "f"
	default:
		return "?"
	}
}

// Fiducials holds the ground-truth sample indices of the characteristic
// points of one beat (Figure 2 of the paper). A value of -1 means the
// wave is absent (e.g. no P wave during AF or in a PVC).
type Fiducials struct {
	POn, PPeak, POff     int
	QRSOn, RPeak, QRSOff int
	TOn, TPeak, TOff     int
}

// Beat is one annotated heartbeat.
type Beat struct {
	Label BeatLabel
	// Fid holds the ground-truth fiducial sample indices.
	Fid Fiducials
}

// Record is a synthesised multi-lead ECG with its ground truth.
type Record struct {
	// Name identifies the record (seed and generation parameters).
	Name string
	// Fs is the sampling frequency in Hz.
	Fs float64
	// Leads holds one equal-length sample slice per lead, in millivolts.
	Leads [][]float64
	// Clean holds the noise-free version of each lead (for SNR scoring).
	Clean [][]float64
	// Beats are the annotated beats in temporal order.
	Beats []Beat
	// AFSegments lists [start,end) sample ranges that are in atrial
	// fibrillation; empty for pure NSR records.
	AFSegments [][2]int
}

// MaxFs is the highest sampling rate, in Hz, that ReadCSV, the node's
// configuration (core.Config) and the ecggen command accept. It is 40
// times the paper's 250 Hz and above any ECG front end, and it keeps
// the buffers sized from the rate small: the node's 4·Fs-sample chunk
// arena is about 1.9 MB at it. Without a ceiling, a CSV whose time
// column steps by a nanosecond made those buffers ask for gigabytes.
const MaxFs = 10000

// ErrNoLeads is returned by record utilities when the record is empty.
var ErrNoLeads = errors.New("ecg: record has no leads")

// Len returns the number of samples per lead (0 if no leads).
func (r *Record) Len() int {
	if len(r.Leads) == 0 {
		return 0
	}
	return len(r.Leads[0])
}

// Duration returns the record duration in seconds.
func (r *Record) Duration() float64 {
	if r.Fs == 0 {
		return 0
	}
	return float64(r.Len()) / r.Fs
}

// RPeaks returns the ground-truth R-peak sample indices.
func (r *Record) RPeaks() []int {
	out := make([]int, len(r.Beats))
	for i, b := range r.Beats {
		out[i] = b.Fid.RPeak
	}
	return out
}

// RRIntervals returns successive RR intervals in seconds (length
// len(Beats)-1).
func (r *Record) RRIntervals() []float64 {
	if len(r.Beats) < 2 {
		return nil
	}
	out := make([]float64, len(r.Beats)-1)
	for i := 1; i < len(r.Beats); i++ {
		out[i-1] = float64(r.Beats[i].Fid.RPeak-r.Beats[i-1].Fid.RPeak) / r.Fs
	}
	return out
}

// Validate checks structural invariants: equal lead lengths, ordered
// beats, fiducials within range and internally ordered.
func (r *Record) Validate() error {
	if len(r.Leads) == 0 {
		return ErrNoLeads
	}
	n := len(r.Leads[0])
	for i, l := range r.Leads {
		if len(l) != n {
			return fmt.Errorf("ecg: lead %d length %d != %d", i, len(l), n)
		}
	}
	if len(r.Clean) != 0 && len(r.Clean) != len(r.Leads) {
		return fmt.Errorf("ecg: clean lead count %d != %d", len(r.Clean), len(r.Leads))
	}
	prev := -1
	for bi, b := range r.Beats {
		f := b.Fid
		if f.RPeak <= prev {
			return fmt.Errorf("ecg: beat %d R peak %d not after previous %d", bi, f.RPeak, prev)
		}
		prev = f.RPeak
		if f.RPeak < 0 || f.RPeak >= n {
			return fmt.Errorf("ecg: beat %d R peak %d out of range", bi, f.RPeak)
		}
		checkWave := func(on, peak, off int, name string) error {
			if on == -1 && peak == -1 && off == -1 {
				return nil
			}
			if !(on <= peak && peak <= off) {
				return fmt.Errorf("ecg: beat %d %s fiducials out of order (%d,%d,%d)", bi, name, on, peak, off)
			}
			if on < 0 || off >= n {
				return fmt.Errorf("ecg: beat %d %s fiducials out of range", bi, name)
			}
			return nil
		}
		if err := checkWave(f.POn, f.PPeak, f.POff, "P"); err != nil {
			return err
		}
		if err := checkWave(f.QRSOn, f.RPeak, f.QRSOff, "QRS"); err != nil {
			return err
		}
		if err := checkWave(f.TOn, f.TPeak, f.TOff, "T"); err != nil {
			return err
		}
	}
	for _, seg := range r.AFSegments {
		if seg[0] < 0 || seg[1] > n || seg[0] >= seg[1] {
			return fmt.Errorf("ecg: bad AF segment %v", seg)
		}
	}
	return nil
}
