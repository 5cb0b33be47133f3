package telemetry

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// TestHistogramSaturationVisible overflows a histogram into the final
// bucket and asserts the saturation is explicit at every read level:
// the accessor, the snapshot struct and the rendered /metrics JSON.
// Saturation (an observation ≥ 2^63, i.e. a negative duration cast to
// uint64 or similar corruption) is a soak failure signal, so it must
// never be inferable only from bucket archaeology.
func TestHistogramSaturationVisible(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test.saturating")
	h.Observe(17)
	if s := h.Snapshot(); s.Saturated != 0 {
		t.Fatalf("clean snapshot saturated=%d", s.Saturated)
	}

	h.Observe(1 << 63)            // smallest saturating value
	h.Observe(math.MaxUint64)     // the classic: uint64(-1)
	h.Observe(uint64(1<<63) + 42) // anywhere in the top bucket
	s := h.Snapshot()
	if s.Saturated != 3 {
		t.Fatalf("snapshot saturated=%d, want 3", s.Saturated)
	}
	if s.Count != 4 {
		t.Fatalf("count=%d, want 4", s.Count)
	}

	// The JSON a scraper reads must carry the field — and carry it even
	// for unsaturated histograms, so watchers can assert on presence.
	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"saturated": 3`) {
		t.Errorf("rendered JSON lacks saturated count:\n%s", buf.String())
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Histograms["test.saturating"].Saturated != 3 {
		t.Errorf("round-tripped snapshot saturated=%d, want 3",
			snap.Histograms["test.saturating"].Saturated)
	}
	reg.Histogram("test.clean").Observe(1)
	buf.Reset()
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"saturated": 0`) {
		t.Errorf("unsaturated histogram omits the saturated field:\n%s", buf.String())
	}
}

// TestHistogramBatchEquivalence drives the same observation stream
// through direct recording and through a HistogramBatch and asserts the
// final snapshots are identical — the bounded fan-in path must change
// scheduling, never contents.
func TestHistogramBatchEquivalence(t *testing.T) {
	direct := &Histogram{}
	batched := &Histogram{}
	b := batched.Batch()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63n(1 << uint(rng.Intn(40))))
		direct.Observe(v)
		b.Observe(v)
		if i%257 == 0 {
			b.Flush() // interleave partial flushes
		}
	}
	b.Flush()
	ds, bs := direct.Snapshot(), batched.Snapshot()
	if ds.Count != bs.Count || ds.Sum != bs.Sum || ds.Min != bs.Min || ds.Max != bs.Max {
		t.Fatalf("summary diverged: direct %+v batched %+v", ds, bs)
	}
	if len(ds.Buckets) != len(bs.Buckets) {
		t.Fatalf("bucket shapes diverged: %d vs %d", len(ds.Buckets), len(bs.Buckets))
	}
	for i := range ds.Buckets {
		if ds.Buckets[i] != bs.Buckets[i] {
			t.Errorf("bucket %d: direct %+v batched %+v", i, ds.Buckets[i], bs.Buckets[i])
		}
	}
	// Nil-safety: a nil batch swallows everything.
	var nb *HistogramBatch
	nb.Observe(1)
	nb.Flush()
}

// TestFleetBatchEquivalence checks the fleet rollup batch: totals after
// Flush equal per-patient direct recording.
func TestFleetBatchEquivalence(t *testing.T) {
	regD, regB := NewRegistry(), NewRegistry()
	fmD, fmB := NewFleetMetrics(regD), NewFleetMetrics(regB)
	batch := fmB.NewBatch(3)
	for p := 0; p < 100; p++ {
		ev, dj := uint64(10+p), float64(p)*1e-4
		fmD.PatientsDone.Inc()
		fmD.EventsTotal.Add(ev)
		fmD.Shard(3).Inc()
		fmD.DeliveryPermille.Observe(uint64(900 + p%100))
		fmD.SePermille.Observe(uint64(950))
		fmD.RadioEnergyJ.Add(dj)
		batch.RecordPatient(ev, dj, int64(900+p%100), 950, -1, -1, -1)
	}
	batch.Flush()
	if fmD.PatientsDone.Value() != fmB.PatientsDone.Value() {
		t.Errorf("patients: %d vs %d", fmD.PatientsDone.Value(), fmB.PatientsDone.Value())
	}
	if fmD.EventsTotal.Value() != fmB.EventsTotal.Value() {
		t.Errorf("events: %d vs %d", fmD.EventsTotal.Value(), fmB.EventsTotal.Value())
	}
	if fmD.Shard(3).Value() != fmB.Shard(3).Value() {
		t.Errorf("shard counter: %d vs %d", fmD.Shard(3).Value(), fmB.Shard(3).Value())
	}
	if math.Abs(fmD.RadioEnergyJ.Value()-fmB.RadioEnergyJ.Value()) > 1e-12 {
		t.Errorf("energy: %g vs %g", fmD.RadioEnergyJ.Value(), fmB.RadioEnergyJ.Value())
	}
	d, b := fmD.DeliveryPermille.Snapshot(), fmB.DeliveryPermille.Snapshot()
	if d.Count != b.Count || d.Sum != b.Sum || d.Min != b.Min || d.Max != b.Max {
		t.Errorf("delivery histogram diverged: %+v vs %+v", d, b)
	}
	if fmB.PPVPermille.Snapshot().Count != 0 {
		t.Errorf("negative (N/A) scores must not be observed")
	}
	var nilBatch *FleetBatch
	nilBatch.RecordPatient(1, 1, 1, 1, 1, 1, 1)
	nilBatch.Flush()
}

// TestRuntimeGauges asserts the runtime family lands in snapshots with
// live values and refreshes on every snapshot via the collector hook.
func TestRuntimeGauges(t *testing.T) {
	reg := NewRegistry()
	rm := NewRuntimeMetrics(reg)
	s := reg.Snapshot()
	heap, ok := s.Gauges["runtime.heap_inuse_bytes"]
	if !ok || heap.Value <= 0 {
		t.Fatalf("runtime.heap_inuse_bytes missing or zero: %+v", heap)
	}
	if g := s.Gauges["runtime.goroutines"]; g.Value < 1 {
		t.Fatalf("runtime.goroutines=%d", g.Value)
	}
	if g := s.Gauges["runtime.heap_sys_bytes"]; g.Value <= 0 {
		t.Fatalf("runtime.heap_sys_bytes=%d", g.Value)
	}

	// The collector must refresh values at snapshot time: allocate a
	// visible amount and check heap_objects moved without calling Update
	// ourselves.
	before := s.Gauges["runtime.total_alloc_mb"].Value
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 1<<20)
	}
	runtime.KeepAlive(sink)
	after := reg.Snapshot().Gauges["runtime.total_alloc_mb"].Value
	if after < before+32 {
		t.Errorf("total_alloc_mb did not refresh on snapshot: %d -> %d", before, after)
	}
	rm.Update() // direct call is also allowed
}
