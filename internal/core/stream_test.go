package core

import (
	"math"
	"testing"

	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/link"
)

// pushRecord feeds a whole record through a stream in blocks and returns
// all events including the flush.
func pushRecord(t *testing.T, s *Stream, rec *ecg.Record, block int) []Event {
	t.Helper()
	var events []Event
	n := rec.Len()
	for start := 0; start < n; start += block {
		end := start + block
		if end > n {
			end = n
		}
		chunk := make([][]float64, len(rec.Leads))
		for i := range chunk {
			chunk[i] = rec.Leads[i][start:end]
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

func TestStreamValidation(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeRawStreaming})
	s, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push([]float64{1}); err != ErrStream {
		t.Error("wrong lead count should fail")
	}
	if _, err := s.PushBlock([][]float64{{1}, {1}}); err != ErrStream {
		t.Error("wrong block lead count should fail")
	}
	if _, err := s.PushBlock([][]float64{{1, 2}, {1}, {1, 2}}); err != ErrStream {
		t.Error("ragged block should fail")
	}
}

func TestStreamRawPacketisation(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeRawStreaming})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 1, Duration: 10})
	events := pushRecord(t, s, rec, 100)
	if len(events) == 0 {
		t.Fatal("no packets emitted")
	}
	total := 0
	for _, e := range events {
		if e.Kind != EventPacket {
			t.Fatal("raw stream should only emit packets")
		}
		total += e.Bytes
	}
	// Whole-record processing gives the same byte count.
	res, err := node.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	if diff := total - res.TxBytes; diff < -100 || diff > 100 {
		t.Errorf("streamed bytes %d vs batch %d", total, res.TxBytes)
	}
}

func TestStreamCSPacketisation(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeCS})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 2, Duration: 10})
	events := pushRecord(t, s, rec, 257)
	wantWindows := rec.Len() / node.Config().CSWindow
	if len(events) != wantWindows {
		t.Errorf("got %d CS packets, want %d", len(events), wantWindows)
	}
	for _, e := range events {
		if e.Bytes <= 0 {
			t.Error("empty CS packet")
		}
	}
}

func TestStreamBeatsMatchBatch(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeDelineation})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 3, Duration: 30})
	events := pushRecord(t, s, rec, 64)
	var streamed []int
	for _, e := range events {
		if e.Kind != EventBeat {
			continue
		}
		streamed = append(streamed, e.At)
	}
	res, err := node.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Every batch beat must be matched by a streamed beat within 3
	// samples; no large surplus.
	matched := 0
	for _, b := range res.Beats {
		for _, r := range streamed {
			d := r - b.Fiducials.R
			if d < 0 {
				d = -d
			}
			if d <= 3 {
				matched++
				break
			}
		}
	}
	if matched < len(res.Beats)-1 {
		t.Errorf("streamed beats matched %d/%d batch beats", matched, len(res.Beats))
	}
	if len(streamed) > len(res.Beats)+2 {
		t.Errorf("streamed %d beats vs batch %d (duplicates?)", len(streamed), len(res.Beats))
	}
	// Events are time-ordered and strictly increasing.
	for i := 1; i < len(streamed); i++ {
		if streamed[i] <= streamed[i-1] {
			t.Error("streamed beats out of order")
		}
	}
}

func TestStreamAFEvents(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeAFAlarm})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 4, Duration: 90, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	events := pushRecord(t, s, rec, 128)
	afEvents := 0
	afPositive := 0
	for _, e := range events {
		if e.Kind == EventAF {
			afEvents++
			if e.AF.AF {
				afPositive++
			}
		}
	}
	if afEvents == 0 {
		t.Fatal("no AF decisions emitted")
	}
	if afPositive < afEvents/2 {
		t.Errorf("only %d/%d streamed windows voted AF on an AF record", afPositive, afEvents)
	}
}

func TestStreamSampleBySample(t *testing.T) {
	// Push one sample at a time: identical behaviour, just slower.
	node, _ := NewNode(Config{Mode: ModeCS})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 5, Duration: 4})
	var packets int
	for i := 0; i < rec.Len(); i++ {
		sample := make([]float64, len(rec.Leads))
		for li := range sample {
			sample[li] = rec.Leads[li][i]
		}
		evs, err := s.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		packets += len(evs)
	}
	if want := rec.Len() / node.Config().CSWindow; packets != want {
		t.Errorf("sample-by-sample emitted %d packets, want %d", packets, want)
	}
}

// TestStreamQuantizedCS pins the node's CS packets to the radio grid:
// each packet is charged energy.SampleBits per measurement, every lead
// is already coded, so re-quantising it (link.QuantizeLead, the codec's
// own rounding) changes no bit and link.Decode(link.Encode(...)) hands
// back the event's measurements exactly; and they stay within half a
// code step (plus the Q15 front end's rounding) of the float encoder.
func TestStreamQuantizedCS(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 6, Duration: 8})
	node, err := NewNode(Config{Mode: ModeCS, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	events, err := s.PushBlock(rec.Leads)
	if err != nil {
		t.Fatal(err)
	}
	m := node.enc.MeasurementLen()
	if len(events) != rec.Len()/node.Config().CSWindow {
		t.Fatalf("%d packets, want %d", len(events), rec.Len()/node.Config().CSWindow)
	}
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: measurement %d is %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	for w, e := range events {
		if want := (m*len(rec.Leads)*energy.SampleBits + 7) / 8; e.Bytes != want {
			t.Fatalf("packet %d charged %d bytes, want %d", w, e.Bytes, want)
		}
		frame, err := link.Encode(link.Packet{Seq: uint32(w), Measurements: e.Measurements})
		if err != nil {
			t.Fatal(err)
		}
		wire, err := link.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		win := e.At
		for li, y := range e.Measurements {
			again := append([]float64(nil), y...)
			if err := link.QuantizeLead(again); err != nil {
				t.Fatal(err)
			}
			sameBits("re-quantised", again, y)
			sameBits("decoded", wire.Measurements[li], y)
			ref := node.enc.Encode(rec.Leads[li][win : win+node.Config().CSWindow])
			peak := 0.0
			for _, v := range y {
				peak = max(peak, math.Abs(v))
			}
			tol := peak/2048 + math.Ldexp(1, -12)
			for i := range ref {
				if d := math.Abs(y[i] - ref[i]); d > tol {
					t.Fatalf("packet %d lead %d measurement %d: %v vs float %v (tolerance %.3g)", w, li, i, y[i], ref[i], tol)
				}
			}
		}
	}
}

// Push appends one multi-lead sample (one value per lead) and returns
// any events that became ready. Programs push blocks (PushBlock); the
// per-sample form is what these tests drive.
func (s *Stream) Push(sample []float64) ([]Event, error) {
	if len(sample) != len(s.buf) {
		return nil, ErrStream
	}
	for i, v := range sample {
		s.buf[i] = append(s.buf[i], v)
	}
	s.pos++
	return s.drain(false)
}
