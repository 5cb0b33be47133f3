package fleet

import (
	"math"

	"wbsn/internal/cs"
	"wbsn/internal/gateway"
)

// PatientState is the cold tier of the fleet's two-tier memory model:
// everything a patient owns while it is NOT on a rig, packed into 64
// bytes and allocated as one flat slice for the whole population —
// zero pointers, zero per-patient allocations, and a fixed, auditable
// bytes/patient figure. The hot tier (core.Stream, gateway.Receiver,
// reassembler buffers, trace rings) stays pooled per worker slot; a
// scheduling turn rehydrates a patient onto a rig, runs one session,
// and folds the outcome back into this struct.
//
// Digest is a resumable FNV-1a state, so cumulative bit-identity
// survives any scheduling: any group/slot topology, and a
// checkpoint/restore boundary. Clinical scores
// accumulate as exact TP/FP/FN counts (not ratios), so aggregation is
// order-free and restores lose nothing.
type PatientState struct {
	// Digest is the running FNV-1a state over the patient's full event
	// stream, reconstructed signal and recovered fiducials.
	Digest uint64
	// RadioEnergyJ / IdealEnergyJ accumulate the radio ledger.
	RadioEnergyJ float64
	IdealEnergyJ float64
	// Events/Packets/Delivered/Lost/Beats accumulate the chain counters.
	Events    uint32
	Packets   uint32
	Delivered uint32
	Lost      uint32
	Beats     uint32
	// TP/FP/FN accumulate the R-peak match counts against ground truth.
	TP uint32
	FP uint32
	FN uint32
	// Rounds counts completed scheduling turns.
	Rounds uint32

	_pad uint32
}

// patientStateBytes is the pinned cold-tier size (TestPatientStateSize
// fails if the struct drifts).
const patientStateBytes = 64

// Se returns the accumulated sensitivity TP/(TP+FN), NaN with no
// annotated truths.
func (s *PatientState) Se() float64 {
	if s.TP+s.FN == 0 {
		return math.NaN()
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// PPV returns the accumulated positive predictive value TP/(TP+FP),
// NaN with no detections.
func (s *PatientState) PPV() float64 {
	if s.TP+s.FP == 0 {
		return math.NaN()
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// DeliveryRatio returns Delivered/Packets (1 for an idle link).
func (s *PatientState) DeliveryRatio() float64 {
	if s.Packets == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Packets)
}

// warmStore is the optional third residency tier: one compact float32
// warm-start snapshot per patient (the solver coefficients
// cs.WarmState carries window to window), kept while the patient is
// off its rig and rehydrated on its next scheduling turn. This is the
// dominant per-patient resident when enabled — leads × window × 4
// bytes, ~6 KiB at the paper's 3-lead 512-sample window — which is
// exactly why it is a separate, budget-gated tier instead of part of
// PatientState.
//
// Storage is two flat slabs (payloads + valid bytes); slot p is a
// fixed offset, so the store itself never allocates after
// construction.
type warmStore struct {
	leads, n int
	// base is the population index of slot 0 (0 for the fleet store; a
	// single-patient verification store sets base=p so the same
	// runSession path addresses it).
	base  int
	data  []float32
	valid []uint8
}

func newWarmStore(patients, leads, n int) *warmStore {
	return newWarmStoreAt(0, patients, leads, n)
}

func newWarmStoreAt(base, patients, leads, n int) *warmStore {
	return &warmStore{
		leads: leads,
		n:     n,
		base:  base,
		data:  make([]float32, patients*cs.SnapshotLen(leads, n)),
		valid: make([]uint8, patients),
	}
}

// bytesPerPatient is the store's per-patient residency.
func warmBytesPerPatient(leads, n int) int { return cs.SnapshotLen(leads, n)*4 + 1 }

func (s *warmStore) slot(p int) []float32 {
	stride := cs.SnapshotLen(s.leads, s.n)
	i := p - s.base
	return s.data[i*stride : (i+1)*stride]
}

// restore rehydrates patient p's snapshot into a rig receiver's warm
// state (no-op when the slot holds no committed snapshot — the next
// solve runs cold, exactly like a fresh patient).
func (s *warmStore) restore(p int, rx *gateway.Receiver) {
	if s == nil || rx == nil || s.valid[p-s.base] == 0 {
		return
	}
	rx.WarmState().RestoreFrom(s.slot(p), s.leads, s.n)
}

// capture compacts the rig's warm state back into patient p's slot.
// An invalid warm state (stream ended on a lost window, or warm start
// disabled) invalidates the slot so a stale snapshot never seeds a
// later session.
func (s *warmStore) capture(p int, rx *gateway.Receiver) {
	if s == nil || rx == nil {
		return
	}
	if rx.WarmState().SnapshotInto(s.slot(p), s.leads, s.n) {
		s.valid[p-s.base] = 1
	} else {
		s.valid[p-s.base] = 0
	}
}
