package gateway

import (
	"testing"

	"wbsn/internal/core"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
)

func TestReceiverValidation(t *testing.T) {
	r, err := NewReceiver(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ConsumePacket(make([][]float64, 2)); err != ErrGateway {
		t.Error("wrong lead count should fail")
	}
	if got, err := r.Delineate(); err != nil || got != nil {
		t.Error("empty receiver should delineate to nothing")
	}
}

// TestNewReceiverRejectsShortLevels: 64-sample windows leave the
// default db8 basis a 4-sample last DWT level. The receiver must refuse
// the configuration when it is built; accepting it would defer the
// failure to an index-out-of-range panic in the first decode, which on
// an engine worker takes the whole process down.
func TestNewReceiverRejectsShortLevels(t *testing.T) {
	if _, err := NewReceiver(Config{CSWindow: 64}); err == nil {
		t.Fatal("NewReceiver accepted 64-sample windows")
	}
	if _, err := NewReceiver(Config{CSWindow: 128}); err != nil {
		t.Fatalf("128-sample windows: %v", err)
	}
}

func TestMatchNodeMirrorsConfig(t *testing.T) {
	ncfg := core.Config{Mode: core.ModeCS, Fs: 256, Leads: 3, CSWindow: 512, CSRatio: 60, Seed: 5}
	g := MatchNode(ncfg)
	if g.CSWindow != 512 || g.CSRatio != 60 || g.Seed != 5 || g.Leads != 3 {
		t.Errorf("MatchNode mismatch: %+v", g)
	}
}

// TestNewReceiverReusesCachedDecoder pins the decoder cache: a receiver
// built from a Config seen before clones the cached decoder instead of
// regenerating the sensing matrix and re-deriving the solver, so it
// allocates a small fraction of what a never-seen Config costs.
func TestNewReceiverReusesCachedDecoder(t *testing.T) {
	const base = int64(1) << 40 // a seed range no other test builds
	cfg := Config{Seed: base}
	if _, err := NewReceiver(cfg); err != nil {
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(10, func() {
		if _, err := NewReceiver(cfg); err != nil {
			t.Fatal(err)
		}
	})
	seed := base
	miss := testing.AllocsPerRun(10, func() {
		seed++ // a fresh sensing matrix every run
		if _, err := NewReceiver(Config{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	})
	if hit*10 > miss {
		t.Fatalf("NewReceiver of a cached Config: %.0f allocs, of a new Config: %.0f; want under a tenth", hit, miss)
	}
}

// TestEndToEndCompressTransmitDiagnose is the full loop of the paper's
// architecture: the node compresses a record with CS, the packets cross
// the "radio", the gateway reconstructs and delineates — and the remote
// diagnosis must match the ground truth nearly as well as direct
// delineation would.
func TestEndToEndCompressTransmitDiagnose(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 44, Duration: 30})
	ncfg := core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: 9}
	node, err := core.NewNode(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(MatchNode(node.Config()))
	if err != nil {
		t.Fatal(err)
	}
	// Node side: stream the record through the CS encoder. Use the clean
	// leads so reconstruction error is the only distortion under test.
	block := 256
	for start := 0; start < rec.Len(); start += block {
		end := start + block
		if end > rec.Len() {
			end = rec.Len()
		}
		chunk := make([][]float64, len(rec.Leads))
		for li := range chunk {
			chunk[li] = rec.Clean[li][start:end]
		}
		events, err := stream.PushBlock(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if err := rx.ConsumeEvents(events); err != nil {
			t.Fatal(err)
		}
	}
	events, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.ConsumeEvents(events); err != nil {
		t.Fatal(err)
	}
	wantSamples := (rec.Len() / node.Config().CSWindow) * node.Config().CSWindow
	if rx.SamplesReceived() != wantSamples {
		t.Fatalf("received %d samples, want %d", rx.SamplesReceived(), wantSamples)
	}
	// Reconstruction quality at CR 60 must be diagnostic-grade.
	recon := rx.Signal()
	for li := range recon {
		snr := dsp.SNRdB(rec.Clean[li][:wantSamples], recon[li])
		if snr < 15 {
			t.Errorf("lead %d reconstruction %.1f dB", li, snr)
		}
	}
	// Remote delineation on the reconstruction vs ground truth.
	beats, err := rx.Delineate()
	if err != nil {
		t.Fatal(err)
	}
	// Trim the truth to the received span.
	trimmed := *rec
	trimmed.Beats = nil
	for _, b := range rec.Beats {
		if b.Fid.TOff < wantSamples {
			trimmed.Beats = append(trimmed.Beats, b)
		}
	}
	rep := delineation.Evaluate(&trimmed, beats, delineation.DefaultTolerances())
	if rep.R.Se() < 0.95 || rep.R.PPV() < 0.95 {
		t.Errorf("remote QRS detection Se=%.3f PPV=%.3f on reconstructed signal", rep.R.Se(), rep.R.PPV())
	}
	if rep.TPeak.Se() < 0.85 {
		t.Errorf("remote T-peak Se=%.3f on reconstructed signal", rep.TPeak.Se())
	}
}

func TestLostPacketDegradesGracefully(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 46, Duration: 20})
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := node.NewStream()
	rx, err := NewReceiver(MatchNode(node.Config()))
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([][]float64, len(rec.Leads))
	for li := range chunk {
		chunk[li] = rec.Clean[li]
	}
	events, err := stream.PushBlock(chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Drop every third packet.
	dropped := 0
	for i, e := range events {
		if e.Kind != core.EventPacket {
			continue
		}
		if i%3 == 2 {
			rx.ConsumeLostPacket()
			dropped++
			continue
		}
		if err := rx.ConsumePacket(e.Measurements); err != nil {
			t.Fatal(err)
		}
	}
	if dropped == 0 {
		t.Fatal("test did not drop any packet")
	}
	// Alignment preserved: received sample count matches the full span.
	want := (rec.Len() / node.Config().CSWindow) * node.Config().CSWindow
	if rx.SamplesReceived() != want {
		t.Fatalf("alignment broken: %d vs %d", rx.SamplesReceived(), want)
	}
	// Delivered windows still reconstruct: QRS detection inside them works.
	beats, err := rx.Delineate()
	if err != nil {
		t.Fatal(err)
	}
	if len(beats) < len(rec.Beats)/2 {
		t.Errorf("only %d beats recovered of %d truth beats with 1/3 loss",
			len(beats), len(rec.Beats))
	}
}
