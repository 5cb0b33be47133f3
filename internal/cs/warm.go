package cs

// WarmState carries wavelet coefficients across consecutive windows of
// one stream so the solver starts near the solution instead of at zero.
// Adjacent ECG windows are strongly correlated (same morphology, same
// support), which is exactly the regime where a warm-started FISTA plus
// the Tol early exit trades almost no accuracy for most of the
// iteration budget.
//
// Ownership: one WarmState per stream (per patient, per receiver) —
// never share one across streams, or patient A's coefficients seed
// patient B's windows. The state is NOT safe for concurrent use; the
// single stream it belongs to must decode its windows in order. All
// methods are nil-receiver safe, so call sites can thread an optional
// *WarmState without branching: nil means "always cold".
//
// For the joint solver the stored coefficients live in the solver's
// unit-RMS-normalised domain, so slow lead-gain drift does not stale
// the seed.
type WarmState struct {
	theta [][]float64 // one coefficient vector per lead
	n     int         // coefficient length the state was shaped for
	valid bool        // a complete solve has populated theta
}

// NewWarmState returns an empty (cold) warm state.
func NewWarmState() *WarmState { return &WarmState{} }

// Reset invalidates the carried coefficients: the next solve runs cold.
// Call on stream boundaries (patient switch, rig reuse) and on sequence
// gaps (a lost window means the carried θ no longer describes the
// previous window).
func (w *WarmState) Reset() {
	if w == nil {
		return
	}
	w.valid = false
}

// prepare shapes the state for L leads of n coefficients. A shape
// change invalidates any carried coefficients (they describe a
// different problem). Slot storage is reused across windows, so the
// steady state allocates nothing.
func (w *WarmState) prepare(L, n int) {
	if w == nil {
		return
	}
	if w.n != n || len(w.theta) != L {
		w.valid = false
	}
	if w.n != n {
		w.theta = w.theta[:0]
		w.n = n
	}
	for len(w.theta) < L {
		w.theta = append(w.theta, make([]float64, n))
	}
	if len(w.theta) > L {
		w.theta = w.theta[:L]
	}
}

// seed returns lead's carried coefficients, or nil when the state is
// nil, invalid, or shaped differently — i.e. nil means "solve cold".
func (w *WarmState) seed(lead, n int) []float64 {
	if w == nil || !w.valid || w.n != n || lead >= len(w.theta) {
		return nil
	}
	return w.theta[lead]
}

// seedAll returns all L per-lead seeds, or nil if any lead is cold.
func (w *WarmState) seedAll(L, n int) [][]float64 {
	if w == nil || !w.valid || w.n != n || len(w.theta) != L {
		return nil
	}
	return w.theta
}

// store copies a finished solve's coefficients into lead's slot. The
// state only becomes a usable seed once commit marks the window
// complete, so a partial multi-lead failure cannot leave a half-updated
// valid state.
func (w *WarmState) store(lead int, theta []float64) {
	if w == nil || lead >= len(w.theta) {
		return
	}
	copy(w.theta[lead], theta)
}

// commit marks the stored coefficients as a complete window.
func (w *WarmState) commit() {
	if w == nil || len(w.theta) == 0 {
		return
	}
	w.valid = true
}

// SnapshotLen returns the float32 payload length of a compact snapshot
// for L leads of n coefficients.
func SnapshotLen(L, n int) int { return L * n }

// SnapshotInto compacts the carried coefficients into dst as float32 —
// the cold-tier form a population-scale fleet keeps per patient while
// the patient is off its rig (half the resident bytes of the live
// float64 state). Returns false, storing nothing, when the state holds
// no committed solve or is shaped differently than L leads of n
// coefficients; dst must have length ≥ SnapshotLen(L, n).
//
// The float32 rounding is part of the contract, not an accident: every
// tier crossing — scheduling a patient back onto a rig, writing a
// checkpoint, restoring one — quantises identically, so a soak that
// stops and resumes replays bit-identically against one that never
// stopped.
func (w *WarmState) SnapshotInto(dst []float32, L, n int) bool {
	if w == nil || !w.valid || w.n != n || len(w.theta) != L {
		return false
	}
	for li, theta := range w.theta {
		row := dst[li*n : (li+1)*n]
		for i, v := range theta {
			row[i] = float32(v)
		}
	}
	return true
}

// RestoreFrom rehydrates the state from a compact snapshot: the next
// solve warm-starts from the float32-rounded coefficients. src must
// have length ≥ SnapshotLen(L, n).
func (w *WarmState) RestoreFrom(src []float32, L, n int) {
	if w == nil {
		return
	}
	w.prepare(L, n)
	for li := 0; li < L; li++ {
		row := src[li*n : (li+1)*n]
		theta := w.theta[li]
		for i, v := range row {
			theta[i] = float64(v)
		}
	}
	w.valid = true
}
