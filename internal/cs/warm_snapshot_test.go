package cs

import (
	"math"
	"testing"
)

// TestWarmSnapshotRoundTrip pins the tiered-state contract: a committed
// warm state compacts to float32, and restoring yields exactly the
// float32-rounded coefficients — so two round trips are idempotent and
// a checkpointed snapshot replays bit-identically to an in-memory one.
func TestWarmSnapshotRoundTrip(t *testing.T) {
	const L, n = 3, 16
	w := NewWarmState()
	w.prepare(L, n)
	for li := 0; li < L; li++ {
		theta := make([]float64, n)
		for i := range theta {
			theta[i] = math.Sin(float64(li*n+i)) * 1e-3 / 3.0 // not float32-exact
		}
		w.store(li, theta)
	}
	w.commit()

	buf := make([]float32, SnapshotLen(L, n))
	if !w.SnapshotInto(buf, L, n) {
		t.Fatal("committed state refused to snapshot")
	}

	r := NewWarmState()
	r.RestoreFrom(buf, L, n)
	if !r.valid {
		t.Fatal("restored state not valid")
	}
	for li := 0; li < L; li++ {
		seed := r.seed(li, n)
		if seed == nil {
			t.Fatalf("lead %d: restored state yields no seed", li)
		}
		orig := w.seed(li, n)
		for i := range seed {
			want := float64(float32(orig[i]))
			if seed[i] != want {
				t.Fatalf("lead %d coeff %d: %g, want float32-rounded %g", li, i, seed[i], want)
			}
		}
	}

	// Idempotence: snapshotting the restored state reproduces the same
	// float32 payload bit for bit.
	buf2 := make([]float32, SnapshotLen(L, n))
	if !r.SnapshotInto(buf2, L, n) {
		t.Fatal("restored state refused to snapshot")
	}
	for i := range buf {
		if math.Float32bits(buf[i]) != math.Float32bits(buf2[i]) {
			t.Fatalf("payload %d: %x != %x after round trip", i, buf[i], buf2[i])
		}
	}
}

// TestWarmSnapshotRefusals pins the failure modes: invalid, reset,
// mis-shaped and nil states must refuse to snapshot, and nil restore is
// a no-op.
func TestWarmSnapshotRefusals(t *testing.T) {
	buf := make([]float32, SnapshotLen(2, 8))
	w := NewWarmState()
	if w.SnapshotInto(buf, 2, 8) {
		t.Error("empty state snapshotted")
	}
	w.prepare(2, 8)
	w.store(0, make([]float64, 8))
	w.store(1, make([]float64, 8))
	w.commit()
	if !w.SnapshotInto(buf, 2, 8) {
		t.Error("committed state refused")
	}
	if w.SnapshotInto(make([]float32, SnapshotLen(3, 8)), 3, 8) {
		t.Error("lead-count mismatch snapshotted")
	}
	if w.SnapshotInto(make([]float32, SnapshotLen(2, 4)), 2, 4) {
		t.Error("length mismatch snapshotted")
	}
	w.Reset()
	if w.SnapshotInto(buf, 2, 8) {
		t.Error("reset state snapshotted")
	}
	var nilState *WarmState
	if nilState.SnapshotInto(buf, 2, 8) {
		t.Error("nil state snapshotted")
	}
	nilState.RestoreFrom(buf, 2, 8) // must not panic
}
