package link_test

// End-to-end acceptance test for the fault-injected link layer: the
// full node → ARQ link → gateway chain under the issue's headline
// scenario. It lives in an external test package because the chain
// pulls in core and gateway, which themselves import link.

import (
	"math"
	"testing"

	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
)

// TestEndToEndLossyChain runs the acceptance scenario: ~10%
// Gilbert–Elliott packet loss on the radio hop plus one lead detached
// for 20% of the record. The chain must complete without error, the
// ARQ must recover at least 95% of the windows, the retransmission
// energy must be visible in the energy report, and the remote
// delineation on the reconstructed signal must keep at least 90% QRS
// sensitivity.
func TestEndToEndLossyChain(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 71, Duration: 40, Noise: ecg.NoiseConfig{EMG: 0.01}})
	n := rec.Len()

	// Lead 0 detaches for the middle 20% of the record.
	faulted, faults, err := link.InjectFaults(rec.Leads, rec.Fs, link.FaultConfig{
		Schedule: []link.LeadFault{{Lead: 0, Start: 2 * n / 5, End: 3 * n / 5, Kind: link.FaultLeadOff}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 {
		t.Fatalf("fault schedule %v", faults)
	}

	// Node-side CS encoder streaming the faulted leads.
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	rx, err := gateway.NewReceiver(gateway.MatchNode(node.Config()))
	if err != nil {
		t.Fatal(err)
	}

	// A bursty channel with ~10% stationary frame loss.
	chCfg := link.ChannelConfig{
		PGoodToBad: 0.08, PBadToGood: 0.25,
		LossGood: 0.01, LossBad: 0.4,
		BERBad: 1e-6, PReorder: 0.02, Seed: 3,
	}
	if sl := chCfg.StationaryLoss(); sl < 0.08 || sl > 0.13 {
		t.Fatalf("channel stationary loss %.3f, want ~0.10", sl)
	}
	ch, err := link.NewChannel(chCfg)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := link.NewLink(link.ARQConfig{PAckLoss: 0.05, Seed: 4}, ch, rx)
	if err != nil {
		t.Fatal(err)
	}

	events, err := stream.PushBlock(faulted)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for _, e := range events {
		if e.Kind != core.EventPacket || e.Measurements == nil {
			continue
		}
		if _, err := lk.SendMeasurements(e.At, e.Measurements); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	report := lk.Report()
	if report.Packets != sent || sent < 15 {
		t.Fatalf("sent %d packets, report says %d", sent, report.Packets)
	}

	// ARQ recovery: at least 95% of windows delivered.
	if dr := report.DeliveryRatio(); dr < 0.95 {
		t.Errorf("ARQ delivery ratio %.3f, want >= 0.95 (lost %d of %d)",
			dr, report.Lost, report.Packets)
	}
	// The lossy channel must have actually cost retransmissions, and the
	// overhead must land in the energy report.
	if report.Retransmissions == 0 {
		t.Error("10% loss produced no retransmissions")
	}
	retx := report.RetransmitEnergyJ()
	if retx <= 0 {
		t.Errorf("retransmission energy %.3e J, want > 0", retx)
	}
	model := energy.DefaultNode()
	cfg := node.Config()
	bd := model.CSWindow("CS over lossy link",
		energy.WindowSpec{SamplesPerLead: cfg.CSWindow, Leads: cfg.Leads},
		cs.MeasurementsForCR(cfg.CSWindow, cfg.CSRatio), cfg.CSWindow*cs.Density)
	lossless := bd.TotalJ()
	bd.RetxJ = retx / float64(report.Packets)
	if bd.TotalJ() <= lossless {
		t.Error("retransmission energy not reflected in the breakdown total")
	}

	// The receiver-side signal stays sample-aligned: every window is
	// either reconstructed or zero-filled.
	if got, want := rx.SamplesReceived(), sent*cfg.CSWindow; got != want {
		t.Fatalf("receiver holds %d samples, want %d", got, want)
	}
	// The healthy leads reconstruct with usable fidelity despite the
	// zero-filled gaps.
	span := rx.SamplesReceived()
	if snr := dsp.SNRdB(rec.Clean[1][:span], rx.Signal()[1]); snr < 5 {
		t.Errorf("lead 1 reconstruction SNR %.1f dB under loss, want >= 5", snr)
	}

	// Remote delineation on the reconstructed, gap-padded signal.
	dets, err := rx.Delineate()
	if err != nil {
		t.Fatal(err)
	}
	rep := delineation.Evaluate(rec, dets, delineation.DefaultTolerances())
	if se := rep.R.Se(); se < 0.9 {
		t.Errorf("remote QRS Se %.3f under loss+lead-off, want >= 0.9", se)
	}
}

// TestEndToEndLeadOffFallback closes the node-side half of the
// acceptance scenario: with two leads faulted the gated delineation
// node falls back to the one healthy lead and keeps >= 90% QRS
// sensitivity (the gateway-side half is covered above).
func TestEndToEndLeadOffFallback(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 72, Duration: 30, Noise: ecg.NoiseConfig{EMG: 0.01}})
	faulted, _, err := link.InjectFaults(rec.Leads, rec.Fs, link.FaultConfig{
		Schedule: []link.LeadFault{
			{Lead: 0, Start: 0, End: rec.Len(), Kind: link.FaultLeadOff},
			{Lead: 2, Start: 0, End: rec.Len(), Kind: link.FaultLeadOff},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mask := link.GoodLeads(faulted, rec.Fs); len(mask) != 3 || mask[0] || !mask[1] || mask[2] {
		t.Errorf("gate keeps leads %v, want only lead 1", mask)
	}
	frec := *rec
	frec.Leads = faulted
	node, err := core.NewNode(core.Config{Mode: core.ModeDelineation, GateLeads: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := node.Process(&frec)
	if err != nil {
		t.Fatal(err)
	}
	dets := make([]delineation.BeatFiducials, len(res.Beats))
	for i, b := range res.Beats {
		dets[i] = b.Fiducials
	}
	rep := delineation.Evaluate(rec, dets, delineation.DefaultTolerances())
	if se := rep.R.Se(); se < 0.9 {
		t.Errorf("single-lead fallback QRS Se %.3f, want >= 0.9", se)
	}
}

// windowSink records every delivered window.
type windowSink struct{ got [][][]float64 }

func (s *windowSink) ConsumePacket(m [][]float64) error {
	s.got = append(s.got, m)
	return nil
}
func (s *windowSink) ConsumeLostPacket() { s.got = append(s.got, nil) }

// TestLosslessLinkChargesTheWireFrame makes Figure 6's radio term a
// live measurement. On a lossless link each 3-lead CR-60 window leaves
// as one coded frame whose length is the node's accounted payload (12
// bits per measurement: 923 bytes) plus the codec's fixed framing — a
// 14-byte header, one exponent byte per lead and a 4-byte CRC — so 944
// bytes. The link charges each window exactly
// energy.DefaultRadio().TxEnergyJ of that frame, and the receiver gets
// the node's measurements bit for bit.
func TestLosslessLinkChargesTheWireFrame(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 12, Duration: 20})
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet(telemetry.NewRegistry())
	stream.SetTelemetry(set.Node)
	ch, err := link.NewChannel(link.ChannelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := &windowSink{}
	lk, err := link.NewLink(link.ARQConfig{Seed: 2}, ch, sink)
	if err != nil {
		t.Fatal(err)
	}
	lk.SetTelemetry(set.Link)
	events, err := stream.PushBlock(rec.Leads)
	if err != nil {
		t.Fatal(err)
	}
	leads := len(rec.Leads)
	const framing = 14 + 4 // header and CRC, plus one exponent byte per lead
	for i, e := range events {
		frame, err := link.Encode(link.Packet{Seq: uint32(i), WindowStart: uint32(e.At), Measurements: e.Measurements})
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != e.Bytes+framing+leads || len(frame) != 944 {
			t.Fatalf("window %d: %d-byte frame for %d accounted payload bytes, want %d + %d = 944",
				i, len(frame), e.Bytes, e.Bytes, framing+leads)
		}
		if ok, err := lk.SendMeasurements(e.At, e.Measurements); err != nil || !ok {
			t.Fatalf("window %d: delivered %v, err %v", i, ok, err)
		}
	}
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	windows := uint64(len(events))
	if windows != 10 || set.Node.TxBytes.Value() != windows*923 {
		t.Fatalf("%d windows accounting %d bytes, want 10 of 923", windows, set.Node.TxBytes.Value())
	}
	wantJ := energy.DefaultRadio().TxEnergyJ(944)
	snap := set.Link.PacketMicroJ.Snapshot()
	if want := uint64(wantJ * 1e6); snap.Count != windows || snap.Min != want || snap.Max != want || snap.Sum != windows*want {
		t.Fatalf("link.radio.packet_uj %+v, want %d windows of %d µJ", snap, windows, want)
	}
	if rep := lk.Report(); rep.Attempts != int(windows) || math.Abs(rep.EnergyJ-float64(windows)*wantJ) > 1e-12 {
		t.Fatalf("report: %d attempts, %.9g J; want %d attempts, %.9g J", rep.Attempts, rep.EnergyJ, windows, float64(windows)*wantJ)
	}
	for i, e := range events {
		for li, y := range e.Measurements {
			for k, v := range y {
				if math.Float64bits(sink.got[i][li][k]) != math.Float64bits(v) {
					t.Fatalf("window %d lead %d value %d: received %v, sent %v", i, li, k, sink.got[i][li][k], v)
				}
			}
		}
	}
}
