package core

import (
	"fmt"
	"testing"

	"wbsn/internal/ecg"
	"wbsn/internal/telemetry"
)

// The golden suite pins the compiled-plan stream to the legacy
// hard-wired chain (legacy_ref_test.go): for every ladder mode and
// config permutation the two must produce byte-identical event streams
// and identical telemetry counts. fmt's %#v rendering of float64 is
// bijective (shortest round-trip form, signed zero preserved), so equal
// strings mean bit-identical events.

// eventSource is the surface shared by Stream and legacyStream.
type eventSource interface {
	PushBlock([][]float64) ([]Event, error)
	Flush() ([]Event, error)
	Reset()
	SetTelemetry(*telemetry.NodeMetrics)
}

// feed replays leads through the source in fixed-size blocks plus a
// final flush.
func feed(t *testing.T, s eventSource, leads [][]float64, block int) []Event {
	t.Helper()
	var events []Event
	n := len(leads[0])
	for start := 0; start < n; start += block {
		end := start + block
		if end > n {
			end = n
		}
		chunk := make([][]float64, len(leads))
		for i := range chunk {
			chunk[i] = leads[i][start:end]
		}
		evs, err := s.PushBlock(chunk)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
	}
	evs, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(events, evs...)
}

// runGolden pushes the same signal through the compiled stream and the
// legacy chain and requires identical events and telemetry counts.
func runGolden(t *testing.T, cfg Config, leads [][]float64, block int) {
	t.Helper()
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	legacy := newLegacyStream(node)
	setNew := telemetry.NewSet(telemetry.NewRegistry())
	setOld := telemetry.NewSet(telemetry.NewRegistry())
	compiled.SetTelemetry(setNew.Node)
	legacy.SetTelemetry(setOld.Node)

	evNew := feed(t, compiled, leads, block)
	evOld := feed(t, legacy, leads, block)

	if len(evNew) != len(evOld) {
		t.Fatalf("compiled emitted %d events, legacy %d", len(evNew), len(evOld))
	}
	for i := range evNew {
		got := fmt.Sprintf("%#v", evNew[i])
		want := fmt.Sprintf("%#v", evOld[i])
		if got != want {
			t.Fatalf("event %d diverged\ncompiled: %s\nlegacy:   %s", i, got, want)
		}
	}
	counters := []struct {
		name string
		a, b *telemetry.Counter
	}{
		{"samples", setNew.Node.Samples, setOld.Node.Samples},
		{"chunks", setNew.Node.Chunks, setOld.Node.Chunks},
		{"events", setNew.Node.Events, setOld.Node.Events},
		{"beats", setNew.Node.Beats, setOld.Node.Beats},
		{"packets", setNew.Node.Packets, setOld.Node.Packets},
		{"tx_bytes", setNew.Node.TxBytes, setOld.Node.TxBytes},
	}
	for _, c := range counters {
		if c.a.Value() != c.b.Value() {
			t.Errorf("counter %s: compiled %d, legacy %d", c.name, c.a.Value(), c.b.Value())
		}
	}
	for i := 0; i < telemetry.NumStages; i++ {
		st := telemetry.Stage(i)
		if g, w := setNew.Stages.Stage(st).Snapshot().Count, setOld.Stages.Stage(st).Snapshot().Count; g != w {
			t.Errorf("stage %v lap count: compiled %d, legacy %d", st, g, w)
		}
	}
}

// corruptLeads returns a copy of the leads with every lead but the
// first flattened, so SQI gating drops them.
func corruptLeads(leads [][]float64) [][]float64 {
	out := make([][]float64, len(leads))
	for li := range leads {
		out[li] = append([]float64(nil), leads[li]...)
		if li > 0 {
			for i := range out[li] {
				out[li][i] = 0.001
			}
		}
	}
	return out
}

func TestGoldenBitIdentity(t *testing.T) {
	// 21.3 s at 256 Hz: not a multiple of the CS window or the analysis
	// hop, so every mode exercises a partial trailing flush chunk.
	rec := ecg.Generate(ecg.Config{Seed: 42, Duration: 21.3, Noise: ecg.NoiseConfig{EMG: 0.01}})
	clean := rec.Leads
	corrupted := corruptLeads(clean)
	train := ecg.Generate(ecg.Config{Seed: 43, Duration: 20})
	cls, err := TrainClassifier([]*ecg.Record{train}, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	afRec := ecg.Generate(ecg.Config{Seed: 44, Duration: 60, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})

	cases := []struct {
		name  string
		cfg   Config
		leads [][]float64
		block int
	}{
		{"raw", Config{Mode: ModeRawStreaming}, clean, 257},
		{"cs", Config{Mode: ModeCS, CSRatio: 60, Seed: 7}, clean, 511},
		{"delineation", Config{Mode: ModeDelineation}, clean, 64},
		{"delineation-gated", Config{Mode: ModeDelineation, GateLeads: true}, corrupted, 257},
		{"delineation-gated-clean", Config{Mode: ModeDelineation, GateLeads: true}, clean, 128},
		{"classification", Config{Mode: ModeClassification, Classifier: cls}, clean, 256},
		{"classification-gated", Config{Mode: ModeClassification, Classifier: cls, GateLeads: true}, corrupted, 300},
		{"af-alarm", Config{Mode: ModeAFAlarm}, afRec.Leads, 128},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runGolden(t, c.cfg, c.leads, c.block)
		})
	}
}

// TestStreamEdgeCasesMatchLegacy pins the buffer-management corners on
// both paths: zero-length blocks, Flush on an empty buffer (fresh, after
// Reset, and twice in a row), and a partial trailing chunk.
func TestStreamEdgeCasesMatchLegacy(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 45, Duration: 6})
	for _, mode := range []Mode{ModeRawStreaming, ModeCS, ModeDelineation} {
		t.Run(mode.String(), func(t *testing.T) {
			node, err := NewNode(Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := node.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			legacy := newLegacyStream(node)
			for _, s := range []eventSource{compiled, legacy} {
				empty := make([][]float64, len(rec.Leads))
				for i := range empty {
					empty[i] = []float64{}
				}
				if evs, err := s.PushBlock(empty); err != nil || len(evs) != 0 {
					t.Fatalf("zero-length block: events %v err %v, want none", evs, err)
				}
				if evs, err := s.Flush(); err != nil || len(evs) != 0 {
					t.Fatalf("flush of empty stream: events %v err %v, want none", evs, err)
				}
			}
			// Partial trailing chunk: 700 samples is 1 CS window + 188, or
			// a single short analysis chunk; both paths must agree on the
			// flush events.
			part := make([][]float64, len(rec.Leads))
			for i := range part {
				part[i] = rec.Leads[i][:700]
			}
			evNew, err := compiled.PushBlock(part)
			if err != nil {
				t.Fatal(err)
			}
			evOld, err := legacy.PushBlock(part)
			if err != nil {
				t.Fatal(err)
			}
			fNew, err := compiled.Flush()
			if err != nil {
				t.Fatal(err)
			}
			fOld, err := legacy.Flush()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%#v%#v", evNew, fNew)
			want := fmt.Sprintf("%#v%#v", evOld, fOld)
			if got != want {
				t.Fatalf("partial-chunk events diverged\ncompiled: %s\nlegacy:   %s", got, want)
			}
			// Flush right after Reset (and a second Flush) stays silent.
			compiled.Reset()
			legacy.Reset()
			for _, s := range []eventSource{compiled, legacy} {
				for i := 0; i < 2; i++ {
					if evs, err := s.Flush(); err != nil || len(evs) != 0 {
						t.Fatalf("flush %d after reset: events %v err %v, want none", i, evs, err)
					}
				}
			}
		})
	}
}

// TestFilterCombineSingleLap pins the satellite fix: with lead gating
// dropping all but one lead, the fused filter+combine stage must record
// exactly one StageFilter lap per chunk — a single clock reading per
// boundary (DESIGN §10), no duplicate timing at the filter->combine
// seam.
func TestFilterCombineSingleLap(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 46, Duration: 16})
	node, err := NewNode(Config{Mode: ModeDelineation, GateLeads: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet(telemetry.NewRegistry())
	s.SetTelemetry(set.Node)
	feed(t, s, corruptLeads(rec.Leads), 256)
	chunks := set.Node.Chunks.Value()
	if chunks == 0 {
		t.Fatal("no chunks processed")
	}
	if laps := set.Stages.Stage(telemetry.StageFilter).Snapshot().Count; laps != chunks {
		t.Errorf("StageFilter laps %d over %d chunks, want exactly one per chunk", laps, chunks)
	}
	if laps := set.Stages.Stage(telemetry.StageDelineate).Snapshot().Count; laps != chunks {
		t.Errorf("StageDelineate laps %d over %d chunks, want exactly one per chunk", laps, chunks)
	}
}
