// Faulty: run the compress → transmit → reconstruct → diagnose chain
// over a misbehaving body and a misbehaving radio. One lead detaches
// mid-record, another picks up motion spikes, and the radio hop is a
// bursty Gilbert–Elliott channel; the demo shows the three defence
// layers working together — per-lead signal-quality gating, ARQ
// retransmission with its energy bill, and graceful mode degradation
// when the link quality collapses.
//
//	go run ./examples/faulty
package main

import (
	"fmt"
	"log"

	"wbsn/internal/core"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
)

func main() {
	// A minute of ambulatory ECG with light muscle noise.
	rec := ecg.Generate(ecg.Config{
		Seed:     9,
		Duration: 60,
		Noise:    ecg.NoiseConfig{EMG: 0.012},
	})
	fs := rec.Fs
	n := rec.Len()

	// The body misbehaves: lead 0 detaches for 12 s, lead 2 rides
	// motion spikes for two stretches.
	faulted, faults, err := link.InjectFaults(rec.Leads, fs, link.FaultConfig{
		Schedule: []link.LeadFault{
			{Lead: 0, Start: 20 * int(fs), End: 32 * int(fs), Kind: link.FaultLeadOff},
			{Lead: 2, Start: 8 * int(fs), End: 11 * int(fs), Kind: link.FaultSpike, Level: 4},
			{Lead: 2, Start: 44 * int(fs), End: 47 * int(fs), Kind: link.FaultSpike, Level: 4},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("record %s: %d leads, %.0f s at %.0f Hz, %d beats\n", rec.Name, len(rec.Leads), rec.Duration(), fs, len(rec.Beats))
	fmt.Println("\ninjected signal faults:")
	for _, f := range faults {
		fmt.Printf("  lead %d %-10v %5.1f .. %5.1f s\n", f.Lead, f.Kind, float64(f.Start)/fs, float64(f.End)/fs)
	}
	fmt.Println("\nper-lead signal quality index (fraction of usable 1 s windows):")
	for li, q := range link.LeadSQIs(faulted, fs) {
		fmt.Printf("  lead %d: %.2f\n", li, q)
	}

	// The node compresses the faulted leads; the radio hop is a bursty
	// channel whose bad state eats most frames.
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		log.Fatal(err)
	}
	rx, err := gateway.NewReceiver(gateway.MatchNode(node.Config()))
	if err != nil {
		log.Fatal(err)
	}
	chCfg := link.ChannelConfig{
		PGoodToBad: 0.05, PBadToGood: 0.15,
		LossGood: 0.02, LossBad: 0.9,
		BERBad: 1e-6, PReorder: 0.02, Seed: 11,
	}
	ch, err := link.NewChannel(chCfg)
	if err != nil {
		log.Fatal(err)
	}
	lk, err := link.NewLink(link.ARQConfig{PAckLoss: 0.05, Seed: 7}, ch, rx)
	if err != nil {
		log.Fatal(err)
	}
	mc, err := core.NewModeController(core.ModeCS, core.DegradeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchannel: Gilbert–Elliott, stationary frame loss %.0f%%\n", 100*chCfg.StationaryLoss())

	events, err := stream.PushBlock(faulted)
	if err != nil {
		log.Fatal(err)
	}
	// Stream the CS windows over the lossy hop; the mode controller
	// watches the per-window delivery outcome and downgrades the node
	// when the smoothed ratio collapses.
	downAt := -1
	for _, e := range events {
		if e.Kind != core.EventPacket || e.Measurements == nil {
			continue
		}
		ok, err := lk.SendMeasurements(e.At, e.Measurements)
		if err != nil {
			log.Fatal(err)
		}
		ratio := 0.0
		if ok {
			ratio = 1
		}
		if m, changed := mc.Observe(e.At, ratio); changed && m == core.ModeDelineation {
			downAt = e.At + node.Config().CSWindow
			break
		}
	}
	if err := lk.Close(); err != nil {
		log.Fatal(err)
	}
	report := lk.Report()

	fmt.Println("\nARQ session over the lossy hop:")
	fmt.Printf("  windows    %3d sent, %3d delivered (%.0f%%), %d lost after exhausting retries\n",
		report.Packets, report.Delivered, 100*report.DeliveryRatio(), report.Lost)
	fmt.Printf("  attempts   %3d total, %d retransmissions, %d acks lost, %.1f ms backoff\n",
		report.Attempts, report.Retransmissions, report.AcksLost, 1e3*report.BackoffS)
	fmt.Printf("  channel    %d frames sent (%d during a burst), %d dropped, %d duplicated, %d reordered\n",
		report.Channel.Sent, report.Channel.BadFrames, report.Channel.Dropped,
		report.Channel.Duplicated, report.Channel.Reordered)
	fmt.Printf("  reassembly %d delivered, %d duplicates discarded, %d gaps zero-filled\n",
		report.Reassembly.Delivered, report.Reassembly.Duplicates, report.Reassembly.Filled)
	fmt.Printf("  energy     %.2f mJ spent vs %.2f mJ lossless — %.0f%% retransmission overhead\n",
		1e3*report.EnergyJ, 1e3*report.IdealEnergyJ,
		100*report.RetransmitEnergyJ()/report.IdealEnergyJ)

	// What the gateway got out of it.
	span := rx.SamplesReceived()
	if span > 0 {
		fmt.Println("\ngateway reconstruction (delivered span, zero-filled gaps included):")
		for li := range rx.Signal() {
			fmt.Printf("  lead %d SNR %5.1f dB\n", li, dsp.SNRdB(rec.Clean[li][:span], rx.Signal()[li]))
		}
		beats, err := rx.Delineate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  remote delineation found %d beats in %.0f s of delivered signal\n",
			len(beats), float64(span)/fs)
	}

	// Graceful degradation: the controller gave up on the link, so the
	// node falls back to on-node delineation — transmitting fiducials
	// (a few bytes per beat) instead of measurement windows, with
	// signal-quality gating dropping the faulted leads chunk by chunk.
	for _, tr := range mc.Transitions() {
		fmt.Printf("\nmode controller: %v\n", tr)
	}
	if downAt >= 0 && downAt < n {
		tail := make([][]float64, len(faulted))
		for li := range tail {
			tail[li] = faulted[li][downAt:]
		}
		dnode, err := core.NewNode(core.Config{Mode: core.ModeDelineation, GateLeads: true})
		if err != nil {
			log.Fatal(err)
		}
		dstream, err := dnode.NewStream()
		if err != nil {
			log.Fatal(err)
		}
		devents, err := dstream.PushBlock(tail)
		if err != nil {
			log.Fatal(err)
		}
		dtail, err := dstream.Flush()
		if err != nil {
			log.Fatal(err)
		}
		devents = append(devents, dtail...)
		beats := 0
		for _, e := range devents {
			if e.Kind == core.EventBeat {
				beats++
			}
		}
		fmt.Printf("degraded operation: on-node gated delineation from %.1f s found %d beats in the remaining %.1f s\n",
			float64(downAt)/fs, beats, float64(n-downAt)/fs)
	}
}
