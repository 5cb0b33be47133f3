package core

import (
	"testing"

	"wbsn/internal/ecg"
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

func TestStreamQuantizedCS(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 6, Duration: 8})
	run := func(bits int) (bytes int, meas [][]float64) {
		node, _ := NewNode(Config{Mode: ModeCS, QuantBits: bits, Seed: 3})
		s, _ := node.NewStream()
		chunk := make([][]float64, len(rec.Leads))
		for li := range chunk {
			chunk[li] = rec.Clean[li]
		}
		events, err := s.PushBlock(chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			bytes += e.Bytes
			meas = e.Measurements
		}
		return bytes, meas
	}
	bFull, mFull := run(0)
	bQ8, mQ8 := run(8)
	// 8-bit payload is two thirds of the 12-bit payload.
	if bQ8 >= bFull {
		t.Errorf("8-bit payload %d not smaller than 12-bit %d", bQ8, bFull)
	}
	// Quantisation changes measurement values but only slightly.
	var maxRel float64
	for li := range mFull {
		scale := 0.0
		for _, v := range mFull[li] {
			if a := v; a < 0 {
				v = -v
			}
			if v > scale {
				scale = v
			}
		}
		for i := range mFull[li] {
			d := mQ8[li][i] - mFull[li][i]
			if d < 0 {
				d = -d
			}
			if rel := d / scale; rel > maxRel {
				maxRel = rel
			}
		}
	}
	if maxRel == 0 {
		t.Error("quantisation had no effect on the measurements")
	}
	if maxRel > 0.01 {
		t.Errorf("8-bit quantisation error %.4f of full scale, want < 1%%", maxRel)
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
