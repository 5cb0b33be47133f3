package energy

// This file composes the component models into the Figure 6 experiment:
// the per-window energy breakdown (Radio / Sampling / Compression) of a
// 3-lead node streaming raw data versus compressing with single-lead or
// multi-lead CS before transmission.

// Breakdown is one bar of Figure 6: the per-window energy shares in
// joules.
type Breakdown struct {
	Label   string
	RadioJ  float64
	SampleJ float64
	CompJ   float64
	OSJ     float64
	// RetxJ is the radio energy spent on ARQ retransmissions beyond the
	// first attempt per frame — zero on a lossless link, and the bar
	// segment that grows when the channel degrades.
	RetxJ float64
}

// TotalJ returns the summed window energy.
func (b Breakdown) TotalJ() float64 { return b.RadioJ + b.SampleJ + b.CompJ + b.OSJ + b.RetxJ }

// NodeModel bundles the component models of one WBSN node.
type NodeModel struct {
	Radio RadioModel
	ADC   ADCModel
	CPU   CPUModel
	OS    OSModel
}

// DefaultNode returns the target-platform model used by the Figure 6
// reproduction.
func DefaultNode() NodeModel {
	return NodeModel{Radio: DefaultRadio(), ADC: DefaultADC(), CPU: DefaultCPU(), OS: DefaultOS()}
}

// SampleBits is the width of every value the node puts on the air: one
// raw ADC sample or one CS measurement code. The node's payload
// accounting, the radio codec (internal/link) and this model all charge
// it.
const SampleBits = 12

// WindowSpec describes one processing window of the streaming pipeline.
type WindowSpec struct {
	// SamplesPerLead is the window length n.
	SamplesPerLead int
	// Leads is the lead count (3 for the SmartCardia device).
	Leads int
}

// RawStreamingWindow returns the no-compression bar: every sample of
// every lead is transmitted raw.
func (m NodeModel) RawStreamingWindow(w WindowSpec) Breakdown {
	samples := w.SamplesPerLead * w.Leads
	payload := (samples*SampleBits + 7) / 8
	return Breakdown{
		Label:   "No Comp.",
		RadioJ:  m.Radio.TxEnergyJ(payload),
		SampleJ: m.ADC.SamplingEnergyJ(samples),
		OSJ:     m.OS.EnergyPerWindowJ,
	}
}

// CSWindow returns a compressed bar: each lead's n samples are projected
// to m measurements costing addsPerLead integer operations, and only the
// measurements are transmitted.
func (m NodeModel) CSWindow(label string, w WindowSpec, measurementsPerLead, addsPerLead int) Breakdown {
	samples := w.SamplesPerLead * w.Leads
	payload := (measurementsPerLead*w.Leads*SampleBits + 7) / 8
	return Breakdown{
		Label:   label,
		RadioJ:  m.Radio.TxEnergyJ(payload),
		SampleJ: m.ADC.SamplingEnergyJ(samples),
		CompJ:   m.CPU.ComputeEnergyJ(addsPerLead * w.Leads),
		OSJ:     m.OS.EnergyPerWindowJ,
	}
}

// PowerReduction returns the fractional total-energy reduction of b
// versus the baseline (the paper reports 44.7% and 56.1% for single- and
// multi-lead CS against raw streaming).
func PowerReduction(baseline, b Breakdown) float64 {
	t0 := baseline.TotalJ()
	if t0 == 0 {
		return 0
	}
	return (t0 - b.TotalJ()) / t0
}
