package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeFloat(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter %d, want 5", c.Value())
	}
	var g Gauge
	g.Add(3)
	g.Add(4)
	g.Add(-6)
	if g.Value() != 1 || g.High() != 7 {
		t.Errorf("gauge %d/hi%d, want 1/hi7", g.Value(), g.High())
	}
	g.Set(10)
	if g.Value() != 10 || g.High() != 10 {
		t.Errorf("gauge after Set %d/hi%d", g.Value(), g.High())
	}
	var f FloatCounter
	f.Add(0.5)
	f.Add(1.25)
	if f.Value() != 1.75 {
		t.Errorf("float counter %v, want 1.75", f.Value())
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var f *FloatCounter
	var g *Gauge
	var h *Histogram
	var ss *StageSet
	var mm *ModeMetrics
	var fm *FleetMetrics
	c.Inc()
	c.Add(2)
	f.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	ss.Record(StageFilter, 1)
	mm.RecordTransition(0, 0, 1, 0.5)
	fm.Shard(0).Inc()
	if c.Value() != 0 || f.Value() != 0 || g.Value() != 0 {
		t.Error("nil receivers mutated state")
	}
	if got := h.Snapshot(); got.Count != 0 {
		t.Error("nil histogram snapshot non-empty")
	}
	if mm.Events() != nil {
		t.Error("nil snapshots non-nil")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 0 lands in bucket 0; 1..2^k-1 in power-of-two buckets.
	values := []uint64{0, 1, 3, 7, 100, 1000, 1000, 1000}
	for _, v := range values {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Min != 0 || s.Max != 1000 {
		t.Errorf("min/max %d/%d, want 0/1000", s.Min, s.Max)
	}
	wantSum := uint64(0 + 1 + 3 + 7 + 100 + 3000)
	if s.Sum != wantSum {
		t.Errorf("sum %d, want %d", s.Sum, wantSum)
	}
	// p50 should sit near 100 (rank 4 of 8: 0,1,3,7,|100|,...), p99 in
	// the 1000 bucket, clamped to max.
	if s.P50 < 7 || s.P50 > 127 {
		t.Errorf("p50 %d outside [7,127]", s.P50)
	}
	if s.P99 != 1000 {
		t.Errorf("p99 %d, want 1000 (clamped to max)", s.P99)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 8 {
		t.Errorf("bucket counts sum %d, want 8", total)
	}
	// Monotone bucket bounds.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Le <= s.Buckets[i-1].Le {
			t.Errorf("bucket bounds not increasing: %v", s.Buckets)
		}
	}
}

func TestHistogramMinTracksSmallest(t *testing.T) {
	var h Histogram
	h.Observe(500)
	h.Observe(20)
	h.Observe(300)
	if s := h.Snapshot(); s.Min != 20 || s.Max != 500 {
		t.Errorf("min/max %d/%d, want 20/500", s.Min, s.Max)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("counter not shared by name")
	}
	if reg.Histogram("h") != reg.Histogram("h") {
		t.Error("histogram not shared by name")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Error("gauge not shared by name")
	}
	if reg.FloatCounter("f") != reg.FloatCounter("f") {
		t.Error("float counter not shared by name")
	}
	reg.Counter("a").Add(2)
	s := reg.Snapshot()
	if s.Counters["a"] != 2 {
		t.Errorf("snapshot counter a=%d", s.Counters["a"])
	}
	if _, ok := s.Histograms["h"]; !ok {
		t.Error("snapshot missing pre-registered histogram")
	}
}

func TestStageSetRecords(t *testing.T) {
	reg := NewRegistry()
	ss := NewStageSet(reg)
	ss.Record(StageDelineate, 5000)
	if ss.Stage(StageDelineate).Snapshot().Count != 1 {
		t.Error("stage histogram not recorded")
	}
	if reg.Histogram("pipeline.stage.delineate.ns").Snapshot().Count != 1 {
		t.Error("stage histogram not registered under pipeline.stage name")
	}
}

func TestModeMetricsEdgesAndEvents(t *testing.T) {
	reg := NewRegistry()
	names := []string{"raw", "cs", "delineation"}
	mm := NewModeMetrics(reg, names)
	mm.RecordTransition(10, 1, 2, 0.5)
	mm.RecordTransition(20, 2, 1, 0.99)
	if mm.Transitions.Value() != 2 {
		t.Errorf("transitions %d", mm.Transitions.Value())
	}
	if mm.Current.Value() != 1 {
		t.Errorf("current %d, want 1", mm.Current.Value())
	}
	if mm.Edge(1, 2).Value() != 1 || mm.Edge(2, 1).Value() != 1 {
		t.Error("edge counters wrong")
	}
	evs := mm.Events()
	if len(evs) != 2 || evs[0].FromName != "cs" || evs[0].ToName != "delineation" || evs[1].Quality != 0.99 {
		t.Errorf("events %+v", evs)
	}
	// Pre-registered edge names visible before any traffic.
	if _, ok := reg.Snapshot().Counters["mode.edge.raw->cs"]; !ok {
		t.Error("adjacent edge not pre-registered")
	}
}

func TestModeMetricsRingBounds(t *testing.T) {
	reg := NewRegistry()
	mm := NewModeMetrics(reg, []string{"a", "b"})
	for i := 0; i < modeEventRing+10; i++ {
		mm.RecordTransition(i, 0, 1, 0)
	}
	evs := mm.Events()
	if len(evs) != modeEventRing {
		t.Fatalf("ring kept %d events, want %d", len(evs), modeEventRing)
	}
	if evs[0].At != 10 || evs[len(evs)-1].At != modeEventRing+9 {
		t.Errorf("ring order wrong: first %d last %d", evs[0].At, evs[len(evs)-1].At)
	}
}

func TestSummaryLine(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x.count").Add(7)
	reg.Gauge("x.depth").Set(3)
	reg.Histogram("x.ns").Observe(100)
	reg.FloatCounter("x.j").Add(0.25)
	line := SummaryLine(reg, "x.count", "x.depth", "x.ns", "x.j", "missing")
	for _, want := range []string{"x.count=7", "x.depth=3/hi3", "x.ns=1@p50=", "x.j=0.25", "missing=?"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
}

func TestStartSummaryStops(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n").Inc()
	var sb safeBuffer
	stop := StartSummary(&sb, reg, 10*time.Millisecond, "n")
	time.Sleep(35 * time.Millisecond)
	stop()
	stop() // idempotent
	if got := sb.String(); !strings.Contains(got, "n=1") {
		t.Errorf("summary output %q", got)
	}
}

// safeBuffer is a mutex-guarded strings.Builder for cross-goroutine
// test writes.
type safeBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
