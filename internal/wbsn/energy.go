package wbsn

import "math"

// EnergyModel converts architectural event counts and a DVFS operating
// point into component powers. Dynamic energies scale with V² (CMOS
// switching); leakage power scales roughly with V² as well over the
// narrow near-/super-threshold range the platform spans.
type EnergyModel struct {
	// VNom is the voltage at which the per-event energies are specified.
	VNom float64
	// CoreOpJ is the per-executed-instruction core energy at VNom.
	CoreOpJ float64
	// CoreIdleJ is the per-cycle clock-gated idle energy at VNom.
	CoreIdleJ float64
	// IMemAccessJ and DMemAccessJ are per-access memory energies at VNom.
	IMemAccessJ, DMemAccessJ float64
	// InterconnectJ is the per-transaction interconnect energy at VNom.
	InterconnectJ float64
	// LeakPerCoreW is the per-core leakage power at VNom.
	LeakPerCoreW float64
	// VMin and VMax bound the DVFS range; FMax is the frequency reachable
	// at VMax.
	VMin, VMax, FMax float64
}

// DefaultEnergy returns a 90 nm-class ultra-low-power operating space:
// a few-MHz signal processor (the platform class of Section IV.A) built
// from high-Vt cells (low leakage), scaling from 1.2 V at 2 MHz down to
// near-threshold 0.7 V.
func DefaultEnergy() EnergyModel {
	return EnergyModel{
		VNom:          1.2,
		CoreOpJ:       18e-12,
		CoreIdleJ:     1.5e-12,
		IMemAccessJ:   14e-12,
		DMemAccessJ:   16e-12,
		InterconnectJ: 2.5e-12,
		LeakPerCoreW:  3e-6,
		VMin:          0.7,
		VMax:          1.2,
		FMax:          2e6,
	}
}

// VoltageFor returns the minimum supply voltage sustaining frequency f,
// assuming the linear V-f relation V = VMin + (VMax−VMin)·f/FMax typical
// of the near-threshold regime. Frequencies above FMax clamp to VMax.
func (e EnergyModel) VoltageFor(f float64) float64 {
	if f <= 0 {
		return e.VMin
	}
	if f >= e.FMax {
		return e.VMax
	}
	return e.VMin + (e.VMax-e.VMin)*f/e.FMax
}

// scale returns the dynamic-energy scaling factor (V/VNom)².
func (e EnergyModel) scale(v float64) float64 {
	r := v / e.VNom
	return r * r
}

// PowerBreakdown is one bar of Figure 7: average power per architectural
// component, in watts.
type PowerBreakdown struct {
	Label string
	CoreW float64
	IMemW float64
	DMemW float64
	IntcW float64
	LeakW float64
	// Freq and Voltage record the operating point.
	Freq, Voltage float64
}

// TotalW returns the summed average power.
func (p PowerBreakdown) TotalW() float64 {
	return p.CoreW + p.IMemW + p.DMemW + p.IntcW + p.LeakW
}

// Power converts run statistics into average power for a workload that
// must complete within `deadline` seconds: the operating frequency is
// the lowest that finishes the measured cycle count inside the active
// fraction of the deadline, the voltage follows the DVFS curve, and
// energies are averaged over `period` seconds (the interval at which the
// workload recurs; cores power-gate outside the active burst). Pass
// period <= 0 to average over the deadline itself.
//
// dutyCap bounds the fraction of the deadline available for processing
// (the node must reserve time for radio and sensing; the paper's
// delineation case reports a 7% duty cycle). Pass 1.0 for no cap.
func (e EnergyModel) Power(label string, st Stats, cores int, deadline, dutyCap, period float64) PowerBreakdown {
	if dutyCap <= 0 || dutyCap > 1 {
		dutyCap = 1
	}
	if period <= 0 {
		period = deadline
	}
	tActive := deadline * dutyCap
	f := float64(st.Cycles) / tActive
	v := e.VoltageFor(f)
	s := e.scale(v)
	burst := float64(st.Cycles) / f // == tActive
	coreE := float64(st.Instructions)*e.CoreOpJ*s +
		float64(st.IdleCoreCycles+st.IMemConflictStalls+st.DMemConflictStalls+st.BarrierWaitCycles)*e.CoreIdleJ*s
	imemE := float64(st.FetchAccesses) * e.IMemAccessJ * s
	dmemE := float64(st.DMemAccesses) * e.DMemAccessJ * s
	intcE := float64(st.InterconnectTxns) * e.InterconnectJ * s
	leakE := e.LeakPerCoreW * s * float64(cores) * burst
	return PowerBreakdown{
		Label:   label,
		CoreW:   coreE / period,
		IMemW:   imemE / period,
		DMemW:   dmemE / period,
		IntcW:   intcE / period,
		LeakW:   leakE / period,
		Freq:    f,
		Voltage: v,
	}
}

// Reduction returns the fractional total-power saving of mc versus sc
// (Figure 7 reports "up to 40%").
func Reduction(sc, mc PowerBreakdown) float64 {
	t := sc.TotalW()
	if t == 0 {
		return 0
	}
	return (t - mc.TotalW()) / t
}

// DutyCycleAt returns the active fraction of the deadline when the given
// cycle count runs at frequency f — the figure behind the paper's "7% of
// the duty cycle" delineation result.
func DutyCycleAt(cycles int64, f, deadline float64) float64 {
	if f <= 0 || deadline <= 0 {
		return math.Inf(1)
	}
	return float64(cycles) / f / deadline
}
