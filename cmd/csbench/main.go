// Command csbench regenerates the compressed-sensing results of the
// paper's evaluation: the Figure 5 SNR-vs-CR quality curves (single-lead
// vs multi-lead joint recovery) and the Figure 6 node energy breakdown.
//
// Usage:
//
//	csbench -fig5            # SNR vs CR sweep (slow: full reconstructions)
//	csbench -fig6            # energy breakdown at the quality operating points
//	csbench -fig5 -records 4 -windows 2 -iters 120
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/link"
)

func main() {
	var (
		fig5    = flag.Bool("fig5", false, "run the Figure 5 SNR-vs-CR sweep")
		fig6    = flag.Bool("fig6", false, "run the Figure 6 energy breakdown")
		records = flag.Int("records", 3, "records in the evaluation set")
		windows = flag.Int("windows", 2, "windows per record")
		iters   = flag.Int("iters", 150, "FISTA iterations per pass")
		rwts    = flag.Int("reweights", 2, "iterative-reweighting passes")
		seed    = flag.Int64("seed", 42, "experiment seed")
	)
	flag.Parse()
	if !*fig5 && !*fig6 {
		fmt.Fprintln(os.Stderr, "csbench: pass -fig5 and/or -fig6")
		os.Exit(2)
	}
	if *fig5 {
		runFig5(*records, *windows, *iters, *rwts, *seed)
	}
	if *fig6 {
		runFig6()
	}
}

func runFig5(records, windows, iters, reweights int, seed int64) {
	fmt.Println("== Figure 5: averaged output SNR vs compression ratio ==")
	set := ecg.GenerateSet(ecg.Config{Duration: 20}, seed, records)
	crs := []float64{20, 30, 40, 50, 55, 60, 65, 70, 75, 80, 85, 90}
	cfg := cs.SweepConfig{
		MaxWindowsPerRecord: windows,
		Seed:                seed,
		Solver:              cs.SolverConfig{Iters: iters, Reweights: reweights},
	}
	pts, err := cs.Sweep(set, crs, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "csbench: sweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%6s  %12s  %12s\n", "CR(%)", "SNR-SL(dB)", "SNR-ML(dB)")
	for _, p := range pts {
		fmt.Printf("%6.1f  %12.2f  %12.2f\n", p.CR, p.SNRSingle, p.SNRMulti)
	}
	slCross := cs.CrossingCR(pts, 20, false)
	mlCross := cs.CrossingCR(pts, 20, true)
	fmt.Printf("\n20 dB crossing: single-lead CR = %.1f (paper: 65.9), multi-lead CR = %.1f (paper: 72.7)\n",
		slCross, mlCross)
	if !math.IsNaN(slCross) && !math.IsNaN(mlCross) && mlCross > slCross {
		fmt.Println("shape check PASS: multi-lead sustains 20 dB to higher compression")
	} else {
		fmt.Println("shape check FAIL")
	}
}

func runFig6() {
	fmt.Println("== Figure 6: node energy breakdown per 2-second window ==")
	node := energy.DefaultNode()
	w := energy.WindowSpec{SamplesPerLead: 512, Leads: 3}
	raw := node.RawStreamingWindow(w)
	adds := cs.Density * w.SamplesPerLead
	sl := node.CSWindow("Single-Lead CS", w, cs.MeasurementsForCR(w.SamplesPerLead, 65.9), adds)
	ml := node.CSWindow("Multi-Lead CS", w, cs.MeasurementsForCR(w.SamplesPerLead, 72.7), adds)
	fmt.Printf("%-16s %10s %10s %10s %10s %10s\n", "config", "radio(µJ)", "sample(µJ)", "comp(µJ)", "os(µJ)", "total(µJ)")
	for _, b := range []energy.Breakdown{raw, sl, ml} {
		fmt.Printf("%-16s %10.1f %10.1f %10.2f %10.1f %10.1f\n",
			b.Label, b.RadioJ*1e6, b.SampleJ*1e6, b.CompJ*1e6, b.OSJ*1e6, b.TotalJ()*1e6)
	}
	fmt.Println("\nmeasured: the node's coded CS frames over a lossless link")
	for _, b := range []energy.Breakdown{sl, ml} {
		cr := 65.9
		if b.Label == ml.Label {
			cr = 72.7
		}
		radioJ, frame, payload := wireRadio(cr)
		fmt.Printf("%-16s %10.1f   (%d-byte frames: %d payload + %d framing)\n",
			b.Label, radioJ*1e6, frame, payload, frame-payload)
	}
	fmt.Printf("\npower reduction vs raw: single-lead %.1f%% (paper: 44.7%%), multi-lead %.1f%% (paper: 56.1%%)\n",
		100*energy.PowerReduction(raw, sl), 100*energy.PowerReduction(raw, ml))
	bat := energy.DefaultBattery()
	for _, b := range []energy.Breakdown{raw, sl, ml} {
		avg := b.TotalJ() / 2 // window is 2 s
		fmt.Printf("battery lifetime (%s): %.1f days\n", b.Label, bat.LifetimeHours(avg)/24)
	}
}

// wireRadio streams a synthetic 3-lead record through the CS node at
// compression ratio cr, sends every packet over a lossless link and
// returns the link's radio energy per window, the coded frame size and
// the node's accounted payload per window.
func wireRadio(cr float64) (radioJ float64, frame, payload int) {
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: cr})
	check(err)
	stream, err := node.NewStream()
	check(err)
	events, err := stream.PushBlock(ecg.Generate(ecg.Config{Seed: 1, Duration: 20}).Leads)
	check(err)
	ch, err := link.NewChannel(link.ChannelConfig{})
	check(err)
	lk, err := link.NewLink(link.ARQConfig{}, ch, discard{})
	check(err)
	for _, e := range events {
		_, err := lk.SendMeasurements(e.At, e.Measurements)
		check(err)
		f, err := link.Encode(link.Packet{Measurements: e.Measurements})
		check(err)
		frame, payload = len(f), e.Bytes
	}
	rep := lk.Report()
	return rep.EnergyJ / float64(rep.Packets), frame, payload
}

// discard is a link.Sink that drops every window.
type discard struct{}

func (discard) ConsumePacket([][]float64) error { return nil }
func (discard) ConsumeLostPacket()              {}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "csbench:", err)
		os.Exit(1)
	}
}
