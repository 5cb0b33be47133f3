package main

// The -faulty sweep: run the CS node -> ARQ link -> gateway chain over
// progressively worse Gilbert–Elliott channels and tabulate what the
// paper's robustness layers buy — delivery ratio after retransmission,
// the radio-energy overhead the retries cost, and the QRS sensitivity
// the remote delineator retains over the gap-padded reconstruction.

import (
	"fmt"

	"wbsn/internal/cohort"
	"wbsn/internal/core"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
)

// faultyScenario is one row of the sweep.
type faultyScenario struct {
	name string
	ch   link.ChannelConfig
}

func faultyScenarios(seed int64) []faultyScenario {
	hostile := cohort.CongestedChannel()
	hostile.Seed = seed
	return []faultyScenario{
		{"clean", link.ChannelConfig{PGoodToBad: 0, PBadToGood: 1, Seed: seed}},
		{"light", link.ChannelConfig{
			PGoodToBad: 0.03, PBadToGood: 0.4, LossGood: 0.01, LossBad: 0.3,
			BERBad: 1e-6, Seed: seed}},
		{"bursty", link.ChannelConfig{
			PGoodToBad: 0.08, PBadToGood: 0.25, LossGood: 0.01, LossBad: 0.4,
			BERBad: 1e-6, PReorder: 0.02, Seed: seed}},
		{"harsh", link.ChannelConfig{
			PGoodToBad: 0.1, PBadToGood: 0.15, LossGood: 0.02, LossBad: 0.8,
			BERBad: 1e-6, PReorder: 0.02, Seed: seed}},
		{"hostile", hostile},
	}
}

func runFaultySweep(seed int64) error {
	rec := ecg.Generate(ecg.Config{Seed: 33, Duration: 30, Noise: ecg.NoiseConfig{EMG: 0.01}})
	fmt.Println("== Lossy-link sweep: CS node -> ARQ -> gateway, 30 s record ==")
	fmt.Printf("%-8s %8s %10s %8s %8s %8s %8s\n",
		"channel", "loss", "delivered", "retx", "retx-E", "QRS Se", "QRS PPV")
	for _, sc := range faultyScenarios(seed) {
		node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: seed})
		if err != nil {
			return err
		}
		stream, err := node.NewStream()
		if err != nil {
			return err
		}
		rx, err := gateway.NewReceiver(gateway.MatchNode(node.Config()))
		if err != nil {
			return err
		}
		ch, err := link.NewChannel(sc.ch)
		if err != nil {
			return err
		}
		lk, err := link.NewLink(link.ARQConfig{PAckLoss: 0.05, Seed: seed}, ch, rx)
		if err != nil {
			return err
		}
		events, err := stream.PushBlock(rec.Leads)
		if err != nil {
			return err
		}
		for _, e := range events {
			if e.Kind != core.EventPacket || e.Measurements == nil {
				continue
			}
			if _, err := lk.SendMeasurements(e.At, e.Measurements); err != nil {
				return err
			}
		}
		if err := lk.Close(); err != nil {
			return err
		}
		report := lk.Report()
		dets, err := rx.Delineate()
		if err != nil {
			return err
		}
		rep := delineation.Evaluate(rec, dets, delineation.DefaultTolerances())
		overhead := 0.0
		if report.IdealEnergyJ > 0 {
			overhead = report.RetransmitEnergyJ() / report.IdealEnergyJ
		}
		fmt.Printf("%-8s %7.1f%% %6d/%-3d %8d %7.0f%% %8.3f %8.3f\n",
			sc.name, 100*sc.ch.StationaryLoss(),
			report.Delivered, report.Packets, report.Retransmissions,
			100*overhead, rep.R.Se(), rep.R.PPV())
	}
	fmt.Println("\nloss: stationary frame-loss of the Gilbert–Elliott channel")
	fmt.Println("retx-E: radio energy spent on retransmissions, relative to a lossless link")
	return nil
}
