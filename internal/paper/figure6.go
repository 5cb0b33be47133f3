package paper

import (
	"errors"
	"fmt"
	"strings"

	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/link"
)

// EnergyBreakdown is Figure 6: the modelled node energy per 2 s window
// of 3 leads for raw streaming and for single- and multi-lead CS at the
// paper's 20 dB operating points (CR 65.9 and 72.7), and what the live
// CS node's coded frames of those two cost over a lossless link.
type EnergyBreakdown struct {
	Raw, Single, Multi energy.Breakdown
	Wire               [2]WireFrame
}

// WireFrame is one CS window on the wire: the link's radio energy, the
// coded frame's length and the node's accounted payload.
type WireFrame struct {
	RadioJ         float64
	Frame, Payload int
}

// Figure6 prices the window with the default node energy model and
// sends a 20 s synthetic record (seed 1) through the CS node.
func Figure6() (*EnergyBreakdown, error) {
	node := energy.DefaultNode()
	w := energy.WindowSpec{SamplesPerLead: 512, Leads: 3}
	adds := cs.Density * w.SamplesPerLead
	crs := [2]float64{65.9, 72.7} // the paper's 20 dB operating points
	e := &EnergyBreakdown{
		Raw:    node.RawStreamingWindow(w),
		Single: node.CSWindow("Single-Lead CS", w, cs.MeasurementsForCR(w.SamplesPerLead, crs[0]), adds),
		Multi:  node.CSWindow("Multi-Lead CS", w, cs.MeasurementsForCR(w.SamplesPerLead, crs[1]), adds),
	}
	for i, cr := range crs {
		var err error
		if e.Wire[i], err = wireFrame(cr); err != nil {
			return nil, fmt.Errorf("figure 6 at CR %.1f: %w", cr, err)
		}
	}
	return e, nil
}

// wireFrame sends the CS node's windows at compression ratio cr over a
// lossless link.
func wireFrame(cr float64) (WireFrame, error) {
	var f WireFrame
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: cr})
	if err != nil {
		return f, err
	}
	stream, err := node.NewStream()
	if err != nil {
		return f, err
	}
	events, err := stream.PushBlock(ecg.Generate(ecg.Config{Seed: 1, Duration: 20}).Leads)
	if err != nil {
		return f, err
	}
	ch, err := link.NewChannel(link.ChannelConfig{})
	if err != nil {
		return f, err
	}
	lk, err := link.NewLink(link.ARQConfig{}, ch, discard{})
	if err != nil {
		return f, err
	}
	for _, e := range events {
		if _, err := lk.SendMeasurements(e.At, e.Measurements); err != nil {
			return f, err
		}
		frame, err := link.Encode(link.Packet{Measurements: e.Measurements})
		if err != nil {
			return f, err
		}
		f.Frame, f.Payload = len(frame), e.Bytes
	}
	rep := lk.Report()
	f.RadioJ = rep.EnergyJ / float64(rep.Packets)
	return f, nil
}

// discard is a link.Sink that drops every window.
type discard struct{}

func (discard) ConsumePacket([][]float64) error { return nil }
func (discard) ConsumeLostPacket()              {}

// Shape checks that multi-lead CS saves more than single-lead, in the
// 45-65% and 40-60% bands around the paper's 56.1% and 44.7%, that
// compression costs at most 5% of the single-lead window and that
// sampling costs the same in every bar.
func (e *EnergyBreakdown) Shape() error {
	redSL, redML := energy.PowerReduction(e.Raw, e.Single), energy.PowerReduction(e.Raw, e.Multi)
	switch {
	case !(redML > redSL):
		return fmt.Errorf("multi-lead reduction %.3f should beat single-lead %.3f", redML, redSL)
	case redSL < 0.40 || redSL > 0.60:
		return fmt.Errorf("single-lead reduction %.3f outside the 40-60%% band", redSL)
	case redML < 0.45 || redML > 0.65:
		return fmt.Errorf("multi-lead reduction %.3f outside the 45-65%% band", redML)
	case e.Single.CompJ > 0.05*e.Single.TotalJ():
		return fmt.Errorf("compression share %.3f too large", e.Single.CompJ/e.Single.TotalJ())
	case e.Single.SampleJ != e.Raw.SampleJ || e.Multi.SampleJ != e.Raw.SampleJ:
		return errors.New("sampling energy must not depend on compression")
	}
	return nil
}

func (e *EnergyBreakdown) String() string {
	var b strings.Builder
	b.WriteString("== Figure 6: node energy breakdown per 2-second window ==\n")
	bars := []energy.Breakdown{e.Raw, e.Single, e.Multi}
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s %10s\n", "config", "radio(µJ)", "sample(µJ)", "comp(µJ)", "os(µJ)", "total(µJ)")
	for _, bar := range bars {
		fmt.Fprintf(&b, "%-16s %10.1f %10.1f %10.2f %10.1f %10.1f\n",
			bar.Label, bar.RadioJ*1e6, bar.SampleJ*1e6, bar.CompJ*1e6, bar.OSJ*1e6, bar.TotalJ()*1e6)
	}
	b.WriteString("\nmeasured: the node's coded CS frames over a lossless link\n")
	for i, bar := range bars[1:] {
		f := e.Wire[i]
		fmt.Fprintf(&b, "%-16s %10.1f   (%d-byte frames: %d payload + %d framing)\n",
			bar.Label, f.RadioJ*1e6, f.Frame, f.Payload, f.Frame-f.Payload)
	}
	fmt.Fprintf(&b, "\npower reduction vs raw: single-lead %.1f%% (paper: 44.7%%), multi-lead %.1f%% (paper: 56.1%%)\n",
		100*energy.PowerReduction(e.Raw, e.Single), 100*energy.PowerReduction(e.Raw, e.Multi))
	bat := energy.DefaultBattery()
	for _, bar := range bars {
		avg := bar.TotalJ() / 2 // window is 2 s
		fmt.Fprintf(&b, "battery lifetime (%s): %.1f days\n", bar.Label, bat.LifetimeHours(avg)/24)
	}
	b.WriteString(verdict(e.Shape(), "multi-lead saves more than single-lead, both inside their bands"))
	return b.String()
}
