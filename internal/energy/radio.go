// Package energy models the power consumers of a wireless body sensor
// node — radio, analog front-end/ADC sampling, digital processing — and
// composes them into the per-window energy accounting of Figure 6 and
// the battery-lifetime estimates behind the paper's "mean time between
// charges is typically one week" claim.
//
// The paper's central observation (Sections I, III.A, V) is that "the
// straightforward wireless streaming of raw data to external analysis
// servers" has an unsustainable energy cost because the radio dominates;
// the models here make that dominance explicit and quantify how CS
// compression shifts it.
package energy

import "errors"

// ErrModel is returned for invalid model parameters.
var ErrModel = errors.New("energy: invalid model parameters")

// RadioModel is an IEEE 802.15.4-style narrowband radio with a simple
// MAC, the configuration of the paper's target platform ("simple medium
// access control (MAC) scheme for wireless communication (IEEE 802.15.4)
// between the node and the base station").
type RadioModel struct {
	// BitrateBps is the PHY bitrate (802.15.4: 250 kbit/s).
	BitrateBps float64
	// TxPowerW is the radio's power draw while transmitting.
	TxPowerW float64
	// RxPowerW is the draw while listening (ACK windows, CCA).
	RxPowerW float64
	// MaxPayload is the usable payload per frame after PHY/MAC headers
	// (802.15.4: 127-byte frames, ~102 usable with headers and MIC).
	MaxPayload int
	// OverheadBytes is the per-frame header+footer cost transmitted on
	// air.
	OverheadBytes int
	// StartupJ is the per-burst oscillator/synthesizer startup energy.
	StartupJ float64
	// AckListenS is the post-frame ACK listen window in seconds.
	AckListenS float64
}

// DefaultRadio returns CC2420-class 802.15.4 parameters.
func DefaultRadio() RadioModel {
	return RadioModel{
		BitrateBps:    250e3,
		TxPowerW:      0.031, // ~17 mA at 1.8 V
		RxPowerW:      0.035,
		MaxPayload:    102,
		OverheadBytes: 25,
		StartupJ:      25e-6,
		AckListenS:    0.9e-3,
	}
}

// Frames returns how many MAC frames carry a payload of the given size.
func (r RadioModel) Frames(payloadBytes int) int {
	if payloadBytes <= 0 {
		return 0
	}
	return (payloadBytes + r.MaxPayload - 1) / r.MaxPayload
}

// TxEnergyJ returns the energy to deliver payloadBytes, including frame
// overhead, ACK listening and one startup per burst.
func (r RadioModel) TxEnergyJ(payloadBytes int) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	frames := r.Frames(payloadBytes)
	airBytes := payloadBytes + frames*r.OverheadBytes
	txTime := float64(airBytes*8) / r.BitrateBps
	ackTime := float64(frames) * r.AckListenS
	return r.StartupJ + txTime*r.TxPowerW + ackTime*r.RxPowerW
}

// ADCModel is the acquisition front-end: instrumentation amplifier plus
// successive-approximation converter.
type ADCModel struct {
	// EnergyPerSampleJ is the per-conversion energy including the analog
	// front-end's share.
	EnergyPerSampleJ float64
}

// DefaultADC returns a low-power biosignal front-end: SampleBits-wide
// conversions at ~0.65 µJ each. The instrumentation amplifier dominates this figure —
// the SAR conversion itself is tens of nanojoules, but the analog
// front-end must stay biased through the acquisition.
func DefaultADC() ADCModel {
	return ADCModel{EnergyPerSampleJ: 0.65e-6}
}

// SamplingEnergyJ returns the acquisition energy for n samples.
func (a ADCModel) SamplingEnergyJ(n int) float64 {
	return float64(n) * a.EnergyPerSampleJ
}

// CPUModel is the node's digital processing cost expressed per
// arithmetic operation (the 16-bit integer MCU of Section V running at a
// few MHz).
type CPUModel struct {
	// EnergyPerOpJ is the energy of one integer ALU operation including
	// its share of fetch and addressing (MSP430-class: ~0.6 nJ at 2.2 V
	// per executed instruction, a few instructions per abstract op).
	EnergyPerOpJ float64
}

// DefaultCPU returns the 16-bit MCU model.
func DefaultCPU() CPUModel {
	return CPUModel{EnergyPerOpJ: 1.2e-9}
}

// ComputeEnergyJ returns the energy of n abstract operations.
func (c CPUModel) ComputeEnergyJ(n int) float64 {
	return float64(n) * c.EnergyPerOpJ
}

// OSModel charges the fixed per-window operating-system overhead
// (FreeRTOS tick handling, driver bookkeeping), visible in Figure 6's
// baseline share.
type OSModel struct {
	// EnergyPerWindowJ is the fixed energy per processing window.
	EnergyPerWindowJ float64
}

// DefaultOS returns the FreeRTOS-class overhead.
func DefaultOS() OSModel {
	return OSModel{EnergyPerWindowJ: 2e-6}
}

// Battery converts average power to lifetime.
type Battery struct {
	// CapacityJ is the usable energy (a 100 mAh Li-Po at 3.7 V with 80%
	// usable depth ≈ 1065 J).
	CapacityJ float64
}

// DefaultBattery returns the wearable-patch battery of the SmartCardia
// class device.
func DefaultBattery() Battery {
	return Battery{CapacityJ: 1065}
}

// LifetimeHours returns the runtime at the given average power.
func (b Battery) LifetimeHours(avgPowerW float64) float64 {
	if avgPowerW <= 0 {
		return 0
	}
	return b.CapacityJ / avgPowerW / 3600
}
