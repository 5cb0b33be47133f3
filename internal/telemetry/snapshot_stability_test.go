package telemetry

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// populateSnapshotSet drives a value into every metric family so the
// stability checks see a realistic key population.
func populateSnapshotSet(set *Set) {
	set.Node.Chunks.Add(4)
	set.Link.Delivered.Add(9)
	set.Link.RadioEnergyJ.Add(0.25)
	set.Gateway.QueueDepth.Set(3)
	set.Gateway.DecodeNs.Observe(1500)
	set.Solver.Record(12, 1, true, true, false)
	set.NetGW.FramesRx.Add(20)
	set.NetGW.Attaches.Add(2)
	set.Fleet.PatientsDone.Inc()
	set.Stages.Record(StageCS, 2000)
}

// TestMetricsSnapshotJSONStability pins the /metrics rendering contract
// that diffing two scrapes relies on: two captures of identical state
// serialise to identical bytes, so any textual diff is a real metric
// change.
func TestMetricsSnapshotJSONStability(t *testing.T) {
	reg := NewRegistry()
	populateSnapshotSet(NewSet(reg))

	// Same Snapshot value → identical bytes (map iteration order must
	// not leak into the encoding).
	s1 := reg.Snapshot()
	a, err := json.MarshalIndent(s1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(s1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same snapshot marshalled to different bytes")
	}

	// Two captures with no metric traffic in between differ only in the
	// capture timestamp and the pull-style runtime gauges (their
	// collector re-reads MemStats at every snapshot by design):
	// normalise both and the bytes must match.
	s2 := reg.Snapshot()
	s1.TakenUnixNs, s2.TakenUnixNs = 0, 0
	for _, s := range []*Snapshot{&s1, &s2} {
		for name := range s.Gauges {
			if strings.HasPrefix(name, "runtime.") {
				s.Gauges[name] = GaugeSnapshot{}
			}
		}
	}
	a, _ = json.MarshalIndent(s1, "", "  ")
	c, err := json.MarshalIndent(s2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("idle captures differ:\n%s\n----\n%s", a, c)
	}
}

// TestMetricsSnapshotKeyOrdering walks the rendered JSON and asserts
// every metric-family object lists its keys in sorted order — the
// property that makes two captures line-diffable.
func TestMetricsSnapshotKeyOrdering(t *testing.T) {
	reg := NewRegistry()
	populateSnapshotSet(NewSet(reg))
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"counters", "floats", "gauges", "histograms"} {
		raw, ok := doc[family]
		if !ok {
			t.Fatalf("family %q missing from /metrics document", family)
		}
		keys := objectKeysInOrder(t, raw)
		if len(keys) == 0 {
			t.Fatalf("family %q has no keys", family)
		}
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("family %q keys not sorted: %v", family, keys)
		}
	}
}

// objectKeysInOrder returns a JSON object's keys in document order.
func objectKeysInOrder(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %v %v", tok, err)
	}
	var keys []string
	depth := 0
	for dec.More() || depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		switch d := tok.(type) {
		case json.Delim:
			switch d {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
		case string:
			if depth == 0 {
				keys = append(keys, d)
				// Skip the value so nested object keys are not counted.
				var v json.RawMessage
				if err := dec.Decode(&v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return keys
}
