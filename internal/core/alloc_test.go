package core

import (
	"fmt"
	"testing"

	"wbsn/internal/ecg"
	"wbsn/internal/telemetry"
)

// TestStreamPushSteadyStateAllocs is the allocation regression guard for
// the node hot path: once the stream's buffers are warm, pushing samples
// must average well under 2 allocations per Push across every mode
// (chunk-boundary work — the events slice, CS measurement vectors that
// escape into events, delineator bookkeeping — amortises over the hop).
func TestStreamPushSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skipped under -race (pool caching disabled)")
	}
	rec := ecg.Generate(ecg.Config{Seed: 21, Duration: 40})
	cl, err := TrainClassifier([]*ecg.Record{ecg.Generate(ecg.Config{Seed: 22, Duration: 30})}, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"raw", Config{Mode: ModeRawStreaming}},
		{"cs", Config{Mode: ModeCS, CSRatio: 60, Seed: 3}},
		{"delineation", Config{Mode: ModeDelineation}},
		{"classification", Config{Mode: ModeClassification, Classifier: cl}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node, err := NewNode(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := node.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			hop := streamHop(stream)
			sample := make([]float64, len(rec.Leads))
			pos := 0
			pushOne := func() {
				for li := range sample {
					sample[li] = rec.Leads[li][pos%rec.Len()]
				}
				pos++
				if _, err := stream.Push(sample); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: several chunks so every scratch buffer, the lead
			// buffers and the delineator pool reach steady state.
			for i := 0; i < 4*hop; i++ {
				pushOne()
			}
			// Each measured run is one hop — exactly one chunk of work.
			allocs := testing.AllocsPerRun(8, func() {
				for i := 0; i < hop; i++ {
					pushOne()
				}
			})
			perPush := allocs / float64(hop)
			t.Logf("%s: %.0f allocs per chunk (%.4f per Push, hop=%d)", tc.name, allocs, perPush, hop)
			if perPush > 2 {
				t.Fatalf("steady-state Push averages %.3f allocs (> 2): %s", perPush, tc.name)
			}
			// Tighter absolute guard so a per-chunk regression (e.g. the
			// chunk header or lead buffers reallocating every drain) cannot
			// hide under the generous per-push budget.
			if allocs > 200 {
				t.Fatalf("chunk processing allocates %.0f times (> 200): %s", allocs, tc.name)
			}
		})
	}
}

// streamHop exposes the stream's hop for test pacing.
func streamHop(s *Stream) int { return s.hop }

// TestStreamBufferCapacityStable verifies the compaction fix: the lead
// buffers must stop growing once the first chunk has been processed, so
// long-running streams do not reallocate per chunk.
func TestStreamBufferCapacityStable(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 23, Duration: 30})
	node, err := NewNode(Config{Mode: ModeDelineation})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([][]float64, len(rec.Leads))
	for li := range chunk {
		chunk[li] = rec.Leads[li][:6*stream.chunkLen]
	}
	if _, err := stream.PushBlock(chunk); err != nil {
		t.Fatal(err)
	}
	capAfterWarmup := cap(stream.buf[0])
	for li := range chunk {
		chunk[li] = rec.Leads[li][:stream.chunkLen]
	}
	for r := 0; r < 8; r++ {
		if _, err := stream.PushBlock(chunk); err != nil {
			t.Fatal(err)
		}
		if got := cap(stream.buf[0]); got != capAfterWarmup {
			t.Fatalf("round %d: buffer capacity changed %d -> %d", r, capAfterWarmup, got)
		}
	}
}

// eventsEqual deep-compares two event streams.
func eventsEqual(a, b []Event) error {
	if len(a) != len(b) {
		return fmt.Errorf("event count %d != %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.At != y.At || x.Bytes != y.Bytes {
			return fmt.Errorf("event %d header mismatch: %+v vs %+v", i, x, y)
		}
		if x.Beat != y.Beat {
			return fmt.Errorf("event %d beat mismatch", i)
		}
		if x.AF.AF != y.AF.AF || x.AF.Score != y.AF.Score || x.AF.StartBeat != y.AF.StartBeat {
			return fmt.Errorf("event %d AF mismatch", i)
		}
		if len(x.Measurements) != len(y.Measurements) {
			return fmt.Errorf("event %d lead count mismatch", i)
		}
		for li := range x.Measurements {
			if len(x.Measurements[li]) != len(y.Measurements[li]) {
				return fmt.Errorf("event %d lead %d length mismatch", i, li)
			}
			for j := range x.Measurements[li] {
				if x.Measurements[li][j] != y.Measurements[li][j] {
					return fmt.Errorf("event %d lead %d sample %d not bit-identical", i, li, j)
				}
			}
		}
	}
	return nil
}

// TestStreamResetReplayTwoRecords drives one pooled stream across two
// different records with a Reset in between and checks the second
// record's event stream is bit-identical to a fresh stream's — no state
// (buffers, dedup history, AF windows, scratch) bleeds across patients.
func TestStreamResetReplayTwoRecords(t *testing.T) {
	recA := ecg.Generate(ecg.Config{Seed: 31, Duration: 20})
	recB := ecg.Generate(ecg.Config{Seed: 32, Duration: 20, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	for _, mode := range []Mode{ModeCS, ModeDelineation, ModeAFAlarm} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{Mode: mode, Seed: 9}
			if mode == ModeCS {
				cfg.CSRatio = 60
			}
			node, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := func(s *Stream, rec *ecg.Record) []Event {
				events, err := s.PushBlock(rec.Leads)
				if err != nil {
					t.Fatal(err)
				}
				tail, err := s.Flush()
				if err != nil {
					t.Fatal(err)
				}
				return append(events, tail...)
			}
			pooled, err := node.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			run(pooled, recA) // pollute every internal buffer with record A
			pooled.Reset()
			got := run(pooled, recB)

			fresh, err := node.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			want := run(fresh, recB)
			if err := eventsEqual(got, want); err != nil {
				t.Fatalf("reset replay diverged from fresh stream: %v", err)
			}
		})
	}
}

// TestStreamPushInstrumentedAllocs proves the telemetry layer keeps its
// "free when idle, amortised at chunk boundaries" promise: with a full
// metric family attached, (a) per-chunk allocation behaviour stays
// within the same budget as the uninstrumented stream, and (b) mid-chunk
// pushes — the overwhelmingly common case, where the instrumentation
// executes no code at all — allocate exactly zero.
func TestStreamPushInstrumentedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skipped under -race (pool caching disabled)")
	}
	rec := ecg.Generate(ecg.Config{Seed: 41, Duration: 40})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"raw", Config{Mode: ModeRawStreaming}},
		{"cs", Config{Mode: ModeCS, CSRatio: 60, Seed: 3}},
		{"delineation", Config{Mode: ModeDelineation}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node, err := NewNode(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := node.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			set := telemetry.NewSet(reg)
			stream.SetTelemetry(set.Node)
			hop := streamHop(stream)
			sample := make([]float64, len(rec.Leads))
			pos := 0
			pushOne := func() {
				for li := range sample {
					sample[li] = rec.Leads[li][pos%rec.Len()]
				}
				pos++
				if _, err := stream.Push(sample); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4*hop; i++ {
				pushOne()
			}
			// Same per-chunk budget as the uninstrumented guard above.
			allocs := testing.AllocsPerRun(8, func() {
				for i := 0; i < hop; i++ {
					pushOne()
				}
			})
			perPush := allocs / float64(hop)
			t.Logf("%s instrumented: %.0f allocs per chunk (%.4f per Push)", tc.name, allocs, perPush)
			if perPush > 2 {
				t.Fatalf("instrumented steady-state Push averages %.3f allocs (> 2): %s", perPush, tc.name)
			}
			if allocs > 200 {
				t.Fatalf("instrumented chunk processing allocates %.0f times (> 200): %s", allocs, tc.name)
			}
			// Strict zero-allocation guard for mid-chunk pushes: align to
			// the just-drained state (the buffer holds exactly the
			// chunkLen-hop overlap), then measure hop-1 pushes — one short
			// of the next drain, so telemetry must do literally nothing.
			// AllocsPerRun calls the body runs+1 times.
			for len(stream.buf[0]) != stream.chunkLen-stream.hop {
				pushOne()
			}
			if hop > 2 {
				if a := testing.AllocsPerRun(hop-2, pushOne); a != 0 {
					t.Fatalf("mid-chunk instrumented Push allocates %.2f/op, want exactly 0", a)
				}
			}
			// The attached family actually observed the traffic.
			if set.Node.Chunks.Value() == 0 || set.Node.Samples.Value() == 0 {
				t.Error("node metrics not populated")
			}
			if set.Stages.Stage(telemetry.StageAcquire).Snapshot().Count == 0 {
				t.Error("acquire stage histogram empty")
			}
		})
	}
}
