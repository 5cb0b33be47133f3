package gateway

import (
	"errors"
	"math/rand"
	"testing"

	"wbsn/internal/core"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/link"
)

func TestConsumePacketValidatesMeasurementLength(t *testing.T) {
	r, err := NewReceiver(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := r.m
	if m <= 0 {
		t.Fatalf("measurement length %d", m)
	}
	// One lead short, one lead long, one lead nil: all rejected.
	bad := [][][]float64{
		{make([]float64, m-1), make([]float64, m), make([]float64, m)},
		{make([]float64, m), make([]float64, m+1), make([]float64, m)},
		{make([]float64, m), nil, make([]float64, m)},
	}
	for i, ms := range bad {
		if err := r.ConsumePacket(ms); !errors.Is(err, ErrGateway) {
			t.Errorf("case %d: got %v, want ErrGateway", i, err)
		}
	}
	if r.SamplesReceived() != 0 {
		t.Error("rejected packets must not extend the signal")
	}
	// The well-formed packet passes.
	ok := [][]float64{make([]float64, m), make([]float64, m), make([]float64, m)}
	if err := r.ConsumePacket(ok); err != nil {
		t.Errorf("valid packet rejected: %v", err)
	}
	if r.SamplesReceived() != r.cfg.CSWindow {
		t.Errorf("received %d samples, want %d", r.SamplesReceived(), r.cfg.CSWindow)
	}
}

func TestConsumeLostPacketKeepsAlignment(t *testing.T) {
	r, err := NewReceiver(Config{})
	if err != nil {
		t.Fatal(err)
	}
	r.ConsumeLostPacket()
	r.ConsumeLostPacket()
	if got, want := r.SamplesReceived(), 2*r.cfg.CSWindow; got != want {
		t.Fatalf("lost packets padded %d samples, want %d", got, want)
	}
	for li, lead := range r.Signal() {
		for i, v := range lead {
			if v != 0 {
				t.Fatalf("lead %d sample %d not zero-filled: %v", li, i, v)
			}
		}
	}
	// A lost-window-only receiver delineates to nothing, without error.
	beats, err := r.Delineate()
	if err != nil {
		t.Fatal(err)
	}
	if len(beats) != 0 {
		t.Errorf("zero-filled signal produced %d beats", len(beats))
	}
}

// csPackets runs a record through a CS node and returns the receiver
// plus the emitted packet events.
func csPackets(t *testing.T, rec *ecg.Record, seed int64) (*Receiver, []core.Event) {
	t.Helper()
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: seed})
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
	chunk := make([][]float64, len(rec.Leads))
	for li := range chunk {
		chunk[li] = rec.Clean[li]
	}
	events, err := stream.PushBlock(chunk)
	if err != nil {
		t.Fatal(err)
	}
	var packets []core.Event
	for _, e := range events {
		if e.Kind == core.EventPacket && e.Measurements != nil {
			packets = append(packets, e)
		}
	}
	if len(packets) < 6 {
		t.Fatalf("only %d packets", len(packets))
	}
	return rx, packets
}

// TestOutOfOrderAndDuplicateDelivery shuffles and duplicates the packet
// stream through a link.Reassembler in front of the receiver: the
// reconstruction must be identical to in-order delivery.
func TestOutOfOrderAndDuplicateDelivery(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 47, Duration: 20})
	rxOrdered, packets := csPackets(t, rec, 13)
	for _, e := range packets {
		if err := rxOrdered.ConsumePacket(e.Measurements); err != nil {
			t.Fatal(err)
		}
	}
	rxShuffled, packets2 := csPackets(t, rec, 13)
	ra := link.NewReassembler(rxShuffled)
	// Shuffle within a bounded horizon and duplicate every third packet,
	// mimicking MAC-level reordering plus lost acks.
	arrivals := make([]link.Packet, 0, len(packets2)*2)
	for i, e := range packets2 {
		arrivals = append(arrivals, link.Packet{Seq: uint32(i), WindowStart: uint32(e.At), Measurements: e.Measurements})
		if i%3 == 0 {
			arrivals = append(arrivals, link.Packet{Seq: uint32(i), WindowStart: uint32(e.At), Measurements: e.Measurements})
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := range arrivals {
		j := i + rng.Intn(4)
		if j < len(arrivals) {
			arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
		}
	}
	for _, p := range arrivals {
		if err := ra.Offer(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ra.Flush(); err != nil {
		t.Fatal(err)
	}
	if ra.Stats().Filled != 0 {
		t.Errorf("bounded shuffle should lose nothing, filled %d", ra.Stats().Filled)
	}
	if rxShuffled.SamplesReceived() != rxOrdered.SamplesReceived() {
		t.Fatalf("length mismatch: %d vs %d", rxShuffled.SamplesReceived(), rxOrdered.SamplesReceived())
	}
	for li := range rxOrdered.Signal() {
		a, b := rxOrdered.Signal()[li], rxShuffled.Signal()[li]
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("lead %d diverges at sample %d after reordered delivery", li, i)
			}
		}
	}
}

// TestLossDegradesSNRSmoothly drops a growing fraction of packets and
// checks the reconstruction degrades monotonically — fewer delivered
// windows, lower SNR, never a panic or error — while the signal length
// stays pinned to the transmitted span.
func TestLossDegradesSNRSmoothly(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 48, Duration: 20})
	snrAt := func(dropEvery int) float64 {
		rx, packets := csPackets(t, rec, 17)
		for i, e := range packets {
			if dropEvery > 0 && i%dropEvery == dropEvery-1 {
				rx.ConsumeLostPacket()
				continue
			}
			if err := rx.ConsumePacket(e.Measurements); err != nil {
				t.Fatal(err)
			}
		}
		want := len(packets) * rx.cfg.CSWindow
		if rx.SamplesReceived() != want {
			t.Fatalf("drop-every-%d: %d samples, want %d", dropEvery, rx.SamplesReceived(), want)
		}
		total := 0.0
		for li := range rec.Clean {
			total += dsp.SNRdB(rec.Clean[li][:want], rx.Signal()[li])
		}
		return total / float64(len(rec.Clean))
	}
	lossless := snrAt(0)
	light := snrAt(6) // ~17% loss
	heavy := snrAt(3) // ~33% loss
	if !(lossless > light && light > heavy) {
		t.Errorf("SNR not monotone in loss: lossless %.1f, light %.1f, heavy %.1f", lossless, light, heavy)
	}
	if heavy < 0 {
		t.Errorf("heavy-loss SNR %.1f dB — delivered windows should still carry signal", heavy)
	}
}
