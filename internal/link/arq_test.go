package link

import (
	"math/rand"
	"testing"

	"wbsn/internal/telemetry"
)

// recordingSink captures the reassembled stream for inspection.
type recordingSink struct {
	windows [][]float64 // first-lead content of each consumed window
	lost    int
}

func (s *recordingSink) ConsumePacket(m [][]float64) error {
	s.windows = append(s.windows, append([]float64(nil), m[0]...))
	return nil
}

func (s *recordingSink) ConsumeLostPacket() {
	s.windows = append(s.windows, nil)
	s.lost++
}

func window(tag int) [][]float64 {
	return [][]float64{{float64(tag), float64(tag) + 0.5}}
}

func TestReassemblerInOrder(t *testing.T) {
	sink := &recordingSink{}
	ra := NewReassembler(sink)
	for i := 0; i < 5; i++ {
		if err := ra.Offer(Packet{Seq: uint32(i), Measurements: window(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.windows) != 5 || sink.lost != 0 {
		t.Fatalf("delivered %d windows, %d lost", len(sink.windows), sink.lost)
	}
	for i, w := range sink.windows {
		if w[0] != float64(i) {
			t.Errorf("window %d out of order: %v", i, w)
		}
	}
}

func TestReassemblerHandlesDuplicatesAndOutOfOrder(t *testing.T) {
	sink := &recordingSink{}
	ra := NewReassembler(sink)
	// Arrival order 0, 2, 2, 1, 0 — a reordered window, two duplicates.
	seq := []int{0, 2, 2, 1, 0}
	for _, s := range seq {
		if err := ra.Offer(Packet{Seq: uint32(s), Measurements: window(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.windows) != 3 || sink.lost != 0 {
		t.Fatalf("delivered %d windows (%d lost), want 3", len(sink.windows), sink.lost)
	}
	for i, w := range sink.windows {
		if w[0] != float64(i) {
			t.Errorf("window %d delivered out of order: %v", i, w)
		}
	}
	st := ra.Stats()
	if st.Duplicates != 2 || st.Buffered != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestReassemblerDeclareLostFillsGap(t *testing.T) {
	sink := &recordingSink{}
	ra := NewReassembler(sink)
	if err := ra.Offer(Packet{Seq: 0, Measurements: window(0)}); err != nil {
		t.Fatal(err)
	}
	if err := ra.Offer(Packet{Seq: 2, Measurements: window(2)}); err != nil {
		t.Fatal(err)
	}
	if err := ra.DeclareLost(1); err != nil {
		t.Fatal(err)
	}
	if len(sink.windows) != 3 || sink.lost != 1 {
		t.Fatalf("windows %d lost %d", len(sink.windows), sink.lost)
	}
	if sink.windows[1] != nil || sink.windows[2][0] != 2 {
		t.Error("gap not filled in sequence position 1")
	}
	// A late copy of the filled window is discarded, not re-delivered.
	if err := ra.Offer(Packet{Seq: 1, Measurements: window(1)}); err != nil {
		t.Fatal(err)
	}
	if len(sink.windows) != 3 {
		t.Error("late arrival after gap fill was delivered")
	}
	if ra.Stats().Duplicates != 1 {
		t.Errorf("duplicate count %d, want 1 (the late arrival)", ra.Stats().Duplicates)
	}
}

func TestReassemblerFarJumpBoundsBuffer(t *testing.T) {
	sink := &recordingSink{}
	ra := NewReassembler(sink)
	if err := ra.Offer(Packet{Seq: uint32(ReorderWindow + 5), Measurements: window(1)}); err != nil {
		t.Fatal(err)
	}
	if sink.lost == 0 {
		t.Error("far jump should declare intermediate windows lost")
	}
	if len(ra.pending) > ReorderWindow {
		t.Errorf("buffer unbounded: %d", len(ra.pending))
	}
}

// FuzzReassembler drives the reassembler with an arbitrary arrival
// script — in-order arrivals, withheld and released (reordered)
// windows, duplicates, losses and DeclareLost calls — then Flushes and
// checks the invariants the gateway's sample alignment rests on. Each
// byte is one step: the low three bits pick the step, the high five
// its argument.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1})              // in order
	f.Add([]byte{2, 0, 3, 4, 0, 12})       // reorder and duplicates
	f.Add([]byte{0, 5, 0, 6, 0, 14, 5, 0}) // losses, declared and flushed
	f.Add([]byte{255, 0, 0, 3, 3, 3})      // a deep reorder crossing the window
	f.Add([]byte{7 | 23<<3, 0, 3, 3})      // a withheld run inside the window
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		sink := &recordingSink{}
		ra := NewReassembler(sink)
		var (
			sent     uint32   // next fresh sequence number
			held     []uint32 // withheld windows, released later
			arrived  = map[uint32]bool{}
			lowest   uint32 // lowest sequence number not yet arrived
			arrivals int
			lossy    bool // a window was dropped or declared lost
			deep     bool // an arrival reached the reorder window
		)
		arrive := func(seq uint32) {
			t.Helper()
			if seq > lowest && seq-lowest >= ReorderWindow {
				deep = true
			}
			arrivals++
			arrived[seq] = true
			for arrived[lowest] {
				lowest++
			}
			if err := ra.Offer(Packet{Seq: seq, Measurements: window(int(seq))}); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range script {
			arg := uint32(b >> 3)
			switch b & 7 {
			case 0, 1: // the next window arrives in order
				arrive(sent)
				sent++
			case 2: // the next window is withheld
				held = append(held, sent)
				sent++
			case 3: // a withheld window arrives late
				if len(held) == 0 {
					continue
				}
				i := int(arg) % len(held)
				seq := held[i]
				held = append(held[:i], held[i+1:]...)
				arrive(seq)
			case 4: // a recent window arrives again
				if arg < sent {
					arrive(sent - 1 - arg)
				}
			case 5: // the next window is lost
				sent++
				lossy = true
			case 6: // the sender gives up on a window
				seq := ra.NextSeq()
				if arg&1 == 1 {
					seq = arg >> 1
				}
				if err := ra.DeclareLost(seq); err != nil {
					t.Fatal(err)
				}
				lossy = true
			case 7: // a run of windows is withheld
				for k := uint32(0); k <= arg; k++ {
					held = append(held, sent)
					sent++
				}
			}
		}
		for _, seq := range held {
			arrive(seq)
		}
		if err := ra.Flush(); err != nil {
			t.Fatal(err)
		}

		st := ra.Stats()
		// Every sink call advances the stream by one sequence number, so
		// the i-th call is seq i: a delivered payload must be the one sent
		// with that seq.
		for i, w := range sink.windows {
			if w != nil && (w[0] != float64(i) || w[1] != float64(i)+0.5) {
				t.Fatalf("sink call %d delivered %v, the payload of another sequence number", i, w)
			}
		}
		if got := len(sink.windows) - sink.lost; got != st.Delivered || sink.lost != st.Filled {
			t.Fatalf("sink saw %d packets and %d fills, stats %+v", got, sink.lost, st)
		}
		if uint32(st.Delivered+st.Filled) != ra.NextSeq() {
			t.Fatalf("delivered %d + filled %d != NextSeq %d", st.Delivered, st.Filled, ra.NextSeq())
		}
		if st.Delivered+st.Duplicates != arrivals {
			t.Fatalf("delivered %d + duplicates %d != %d arrivals", st.Delivered, st.Duplicates, arrivals)
		}
		if !lossy && !deep && st.Filled != 0 {
			t.Fatalf("no loss and no reorder reaching the window, yet %d windows filled", st.Filled)
		}
	})
}

func TestLinkDeliversOverLossyChannel(t *testing.T) {
	ch, err := NewChannel(ChannelConfig{
		PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.05, LossBad: 0.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	l, err := NewLink(ARQConfig{Seed: 1}, ch, sink)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 200
	for i := 0; i < packets; i++ {
		if _, err := l.SendMeasurements(i*2, window(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := l.Report()
	if r.Packets != packets {
		t.Fatalf("packets %d", r.Packets)
	}
	// ~13% stationary frame loss with 4 retries: essentially everything
	// must get through.
	if r.DeliveryRatio() < 0.98 {
		t.Errorf("delivery ratio %.3f with ARQ", r.DeliveryRatio())
	}
	// The stream stays aligned: every window accounted for, in order.
	if got := len(sink.windows); got != packets {
		t.Errorf("sink saw %d windows, want %d", got, packets)
	}
	for i, w := range sink.windows {
		if w != nil && w[0] != float64(i) {
			t.Errorf("window %d out of order: %v", i, w)
		}
	}
	// Retransmissions happened and were charged.
	if r.Retransmissions == 0 {
		t.Error("lossy channel produced no retransmissions")
	}
	if r.EnergyJ <= r.IdealEnergyJ {
		t.Errorf("retransmission energy not charged: %.3e vs %.3e", r.EnergyJ, r.IdealEnergyJ)
	}
	if r.RetransmitEnergyJ() <= 0 || r.BackoffS <= 0 {
		t.Error("retransmit energy / backoff not accumulated")
	}
}

func TestLinkAckLossProducesDuplicates(t *testing.T) {
	ch, err := NewChannel(ChannelConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	l, err := NewLink(ARQConfig{PAckLoss: 0.3, Seed: 6}, ch, sink)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := l.SendMeasurements(i, window(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := l.Report()
	if r.AcksLost == 0 {
		t.Fatal("no acks lost at 30% ack loss")
	}
	// Lost acks retransmit windows the receiver already consumed; the
	// reassembler must absorb them as duplicates and deliver each
	// window exactly once.
	if r.Reassembly.Duplicates == 0 {
		t.Error("duplicates not observed at the reassembler")
	}
	if len(sink.windows) != 100 || sink.lost != 0 {
		t.Errorf("sink saw %d windows (%d lost), want exactly 100", len(sink.windows), sink.lost)
	}
}

func TestLinkGivesUpAndDeclaresGap(t *testing.T) {
	// A channel stuck in a fully-lossy bad state: every window exhausts
	// its retries and must surface as a zero-filled gap, not an error.
	ch, err := NewChannel(ChannelConfig{PGoodToBad: 1, LossBad: 1, PBadToGood: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	l, err := NewLink(ARQConfig{MaxRetries: 2, Seed: 3}, ch, sink)
	if err != nil {
		t.Fatal(err)
	}
	// First frame goes out in the Good state and survives; the rest die.
	for i := 0; i < 10; i++ {
		if _, err := l.SendMeasurements(i, window(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := l.Report()
	if r.Lost < 9 {
		t.Errorf("lost %d windows, want >=9", r.Lost)
	}
	if r.Attempts != r.Packets+r.Retransmissions {
		t.Errorf("attempt accounting: %d != %d+%d", r.Attempts, r.Packets, r.Retransmissions)
	}
	if sink.lost != r.Lost || len(sink.windows) != 10 {
		t.Errorf("gaps not declared to sink: %d vs %d", sink.lost, r.Lost)
	}
}

func TestLinkValidation(t *testing.T) {
	ch, _ := NewChannel(ChannelConfig{})
	if _, err := NewLink(ARQConfig{}, nil, &recordingSink{}); err != ErrLink {
		t.Error("nil channel should fail")
	}
	if _, err := NewLink(ARQConfig{}, ch, nil); err != ErrLink {
		t.Error("nil sink should fail")
	}
	if _, err := NewLink(ARQConfig{PAckLoss: 2}, ch, &recordingSink{}); err != ErrLink {
		t.Error("bad ack loss should fail")
	}
	l, err := NewLink(ARQConfig{}, ch, &recordingSink{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SendMeasurements(0, nil); err == nil {
		t.Error("empty measurements should fail to encode")
	}
}

func TestLinkDeterministic(t *testing.T) {
	run := func() Report {
		ch, err := NewChannel(ChannelConfig{PGoodToBad: 0.1, PBadToGood: 0.2, LossBad: 0.6, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		sink := &recordingSink{}
		l, err := NewLink(ARQConfig{PAckLoss: 0.1, Seed: 22}, ch, sink)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 120; i++ {
			m := [][]float64{{rng.NormFloat64(), rng.NormFloat64()}}
			if _, err := l.SendMeasurements(i, m); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return l.Report()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seeds diverged:\n%+v\n%+v", a, b)
	}
}

// TestLinkTelemetryMirrorsReport runs a lossy session with the metric
// family attached and checks every live counter agrees with the
// authoritative Report — and that attaching telemetry does not perturb
// the session (same report as an identical uninstrumented run).
func TestLinkTelemetryMirrorsReport(t *testing.T) {
	run := func(attach bool) (Report, *telemetry.LinkMetrics) {
		ch, err := NewChannel(ChannelConfig{
			PGoodToBad: 0.08, PBadToGood: 0.25, LossGood: 0.05, LossBad: 0.6, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLink(ARQConfig{MaxRetries: 2, PAckLoss: 0.05, Seed: 5}, ch, &recordingSink{})
		if err != nil {
			t.Fatal(err)
		}
		var tm *telemetry.LinkMetrics
		if attach {
			reg := telemetry.NewRegistry()
			tm = telemetry.NewLinkMetrics(reg, telemetry.NewStageSet(reg))
			l.SetTelemetry(tm)
		}
		for i := 0; i < 150; i++ {
			if _, err := l.SendMeasurements(i*2, window(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return l.Report(), tm
	}

	r, tm := run(true)
	checks := []struct {
		name string
		got  uint64
		want int
	}{
		{"packets", tm.Packets.Value(), r.Packets},
		{"delivered", tm.Delivered.Value(), r.Delivered},
		{"lost", tm.Lost.Value(), r.Lost},
		{"attempts", tm.Attempts.Value(), r.Attempts},
		{"retransmissions", tm.Retransmissions.Value(), r.Retransmissions},
		{"acks_lost", tm.AcksLost.Value(), r.AcksLost},
	}
	for _, c := range checks {
		if c.got != uint64(c.want) {
			t.Errorf("telemetry %s %d, report says %d", c.name, c.got, c.want)
		}
	}
	// Every attempt saw exactly one channel state.
	if gb := tm.FramesGood.Value() + tm.FramesBad.Value(); gb != uint64(r.Attempts) {
		t.Errorf("GE occupancy %d frames, want %d attempts", gb, r.Attempts)
	}
	if r.Lost > 0 && tm.FramesBad.Value() == 0 {
		t.Error("losses occurred but no attempt sampled the bad state")
	}
	// The energy ledger matches the report to float tolerance.
	if got := tm.RadioEnergyJ.Value(); got < r.EnergyJ*0.999 || got > r.EnergyJ*1.001 {
		t.Errorf("radio energy %.6e, report %.6e", got, r.EnergyJ)
	}
	if tm.PacketMicroJ.Snapshot().Count != uint64(r.Packets) || tm.PacketAttempts.Snapshot().Count != uint64(r.Packets) {
		t.Error("per-packet histograms incomplete")
	}
	if tm.Stages.Stage(telemetry.StageLink).Snapshot().Count != uint64(r.Packets) {
		t.Error("link stage span count != packets")
	}

	// Pure observation: the instrumented and bare sessions are identical.
	bare, _ := run(false)
	if bare != r {
		t.Errorf("telemetry changed link behaviour:\nwith:    %+v\nwithout: %+v", r, bare)
	}
}
