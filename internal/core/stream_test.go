package core

import (
	"math"
	"slices"
	"testing"

	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/link"
	"wbsn/internal/morpho"
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
	if want := rec.Len() / node.Config().CSWindow; len(events) != want {
		t.Fatalf("%d packets, want %d", len(events), want)
	}
	total := 0
	for _, e := range events {
		if e.Kind != EventPacket {
			t.Fatal("raw stream should only emit packets")
		}
		total += e.Bytes
	}
	// Every sample of every lead leaves at energy.SampleBits.
	if want := rec.Len() * len(rec.Leads) * energy.SampleBits / 8; total != want {
		t.Errorf("streamed %d bytes, want %d", total, want)
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

// text1Records is Text-1's record set (cmd/delineate's defaults): five
// 60 s records with ambulatory noise, seeds 7 to 11.
func text1Records(rhythm ecg.RhythmConfig) []*ecg.Record {
	recs := make([]*ecg.Record, 5)
	for i := range recs {
		recs[i] = ecg.Generate(ecg.Config{Seed: 7 + int64(i), Duration: 60, Rhythm: rhythm, Noise: ecg.AmbulatoryNoise()})
	}
	return recs
}

// beatEvents returns the fiducials of the stream's beat events.
func beatEvents(events []Event) []delineation.BeatFiducials {
	var out []delineation.BeatFiducials
	for _, e := range events {
		if e.Kind == EventBeat {
			out = append(out, e.Beat.Fiducials)
		}
	}
	return out
}

// TestStreamBeatsMatchBatch: over Text-1's records, the beats the
// delineation stream emits chunk by chunk score exactly as the
// whole-record chain (conditioning filter, RMS lead combination,
// delineator over the full record) does: every fiducial's TP, FP and FN
// are equal. Beats near chunk edges keep their P and T waves, and the
// short final chunk places no R peak on a T wave.
func TestStreamBeatsMatchBatch(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeDelineation})
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: 256})
	if err != nil {
		t.Fatal(err)
	}
	var streamed, batch delineation.Report
	for _, rec := range text1Records(ecg.RhythmConfig{}) {
		s, _ := node.NewStream()
		beats := beatEvents(pushRecord(t, s, rec, 64))
		for i := 1; i < len(beats); i++ {
			if beats[i].R <= beats[i-1].R {
				t.Fatalf("%s: streamed beats out of order", rec.Name)
			}
		}
		streamed = delineation.Merge(streamed, delineation.Evaluate(rec, beats, delineation.DefaultTolerances()))
		filtered, err := morpho.FilterLeads(rec.Leads, morpho.FilterConfig{Fs: rec.Fs})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := del.Delineate(dsp.CombineRMS(filtered))
		if err != nil {
			t.Fatal(err)
		}
		batch = delineation.Merge(batch, delineation.Evaluate(rec, whole, delineation.DefaultTolerances()))
	}
	counts := func(r delineation.Report) []delineation.PointScore {
		out := []delineation.PointScore{r.R, r.QRSOn, r.QRSOff, r.POn, r.PPeak, r.POff, r.TOn, r.TPeak, r.TOff}
		for i := range out {
			out[i].ErrSumMs = 0
		}
		return out
	}
	if !slices.Equal(counts(streamed), counts(batch)) {
		t.Errorf("stream and whole record score differently\nstream:\n%swhole record:\n%s", streamed, batch)
	}
}

// TestStreamClassifiesEveryBeat: in classification mode the stream
// labels every beat whose classification window fits in the record,
// wherever its chunk edges fall.
func TestStreamClassifiesEveryBeat(t *testing.T) {
	train := ecg.GenerateSet(ecg.Config{
		Duration: 90,
		Rhythm:   ecg.RhythmConfig{PVCRate: 0.1, APBRate: 0.05},
	}, 800, 3)
	cl, err := TrainClassifier(train, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(Config{Mode: ModeClassification, Classifier: cl})
	if err != nil {
		t.Fatal(err)
	}
	win := node.beatWin
	beats := 0
	for _, rec := range text1Records(ecg.RhythmConfig{PVCRate: 0.05}) {
		s, _ := node.NewStream()
		for _, e := range pushRecord(t, s, rec, 256) {
			if e.Kind != EventBeat {
				continue
			}
			beats++
			if r := e.At; r-win.Before >= 0 && r+win.After <= rec.Len() && e.Beat.Label < 0 {
				t.Errorf("%s: beat at R %d is unlabelled", rec.Name, r)
			}
		}
	}
	if beats == 0 {
		t.Fatal("no beats emitted")
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
	m := cs.MeasurementsForCR(node.Config().CSWindow, node.Config().CSRatio)
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
	return s.drain(false)
}
