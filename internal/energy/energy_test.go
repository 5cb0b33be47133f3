package energy

import (
	"math"
	"testing"
)

func TestRadioFrames(t *testing.T) {
	r := DefaultRadio()
	if r.Frames(0) != 0 {
		t.Error("no payload, no frames")
	}
	if r.Frames(1) != 1 || r.Frames(r.MaxPayload) != 1 {
		t.Error("single-frame payloads wrong")
	}
	if r.Frames(r.MaxPayload+1) != 2 {
		t.Error("frame split wrong")
	}
}

func TestRadioEnergyMonotone(t *testing.T) {
	r := DefaultRadio()
	if r.TxEnergyJ(0) != 0 {
		t.Error("zero payload should cost nothing")
	}
	prev := 0.0
	for _, b := range []int{10, 100, 500, 2000} {
		e := r.TxEnergyJ(b)
		if e <= prev {
			t.Fatalf("TxEnergy not monotone at %d bytes", b)
		}
		prev = e
	}
	// Energy per byte roughly constant at scale: 2000 bytes should cost
	// within 3x of 10x the 200-byte cost (overheads amortise).
	e200, e2000 := r.TxEnergyJ(200), r.TxEnergyJ(2000)
	if e2000 > 10*e200*1.5 || e2000 < 10*e200*0.3 {
		t.Errorf("per-byte scaling off: %v vs %v", e2000, 10*e200)
	}
}

func TestSamplingAndComputeLinear(t *testing.T) {
	a := DefaultADC()
	if a.SamplingEnergyJ(100) != 100*a.EnergyPerSampleJ {
		t.Error("ADC energy not linear")
	}
	c := DefaultCPU()
	if c.ComputeEnergyJ(1000) != 1000*c.EnergyPerOpJ {
		t.Error("CPU energy not linear")
	}
}

func TestBatteryLifetime(t *testing.T) {
	b := DefaultBattery()
	if b.LifetimeHours(0) != 0 {
		t.Error("zero power lifetime should be 0 (undefined)")
	}
	// At ~1.7 mW average (the paper's one-week regime), lifetime must be
	// in the multi-day range.
	h := b.LifetimeHours(1.7e-3)
	if h < 5*24 || h > 14*24 {
		t.Errorf("lifetime at 1.7 mW = %.0f h, want roughly one week", h)
	}
}

func TestRawStreamingBreakdownShape(t *testing.T) {
	node := DefaultNode()
	w := WindowSpec{SamplesPerLead: 512, Leads: 3}
	raw := node.RawStreamingWindow(w)
	if raw.CompJ != 0 {
		t.Error("raw streaming should have no compression energy")
	}
	// The paper's premise: the radio dominates raw streaming.
	if raw.RadioJ < 0.5*raw.TotalJ() {
		t.Errorf("radio share %.2f of raw streaming, expected dominant", raw.RadioJ/raw.TotalJ())
	}
	if raw.SampleJ <= 0 || raw.OSJ <= 0 {
		t.Error("sampling and OS energies must be positive")
	}
}

func TestPowerReductionEdge(t *testing.T) {
	if PowerReduction(Breakdown{}, Breakdown{}) != 0 {
		t.Error("zero baseline should return 0")
	}
	base := Breakdown{RadioJ: 100}
	same := Breakdown{RadioJ: 100}
	if PowerReduction(base, same) != 0 {
		t.Error("identical breakdowns should reduce 0")
	}
	if math.Abs(PowerReduction(base, Breakdown{RadioJ: 25})-0.75) > 1e-12 {
		t.Error("75% reduction miscomputed")
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{RadioJ: 1, SampleJ: 2, CompJ: 3, OSJ: 4}
	if b.TotalJ() != 10 {
		t.Errorf("TotalJ = %v", b.TotalJ())
	}
}

func TestTxEnergyWithPER(t *testing.T) {
	r := DefaultRadio()
	if r.TxEnergyWithPER(0, 0.5) != 0 {
		t.Error("zero payload should cost nothing")
	}
	base := r.TxEnergyWithPER(500, 0)
	if math.Abs(base-r.TxEnergyJ(500)) > 1e-12 {
		t.Error("PER 0 should equal the plain model")
	}
	prev := base
	for _, per := range []float64{0.1, 0.3, 0.5} {
		e := r.TxEnergyWithPER(500, per)
		if e <= prev {
			t.Fatalf("energy should grow with PER: %v at %v", e, per)
		}
		prev = e
	}
	// 50% PER doubles the per-attempt cost (minus the one-off startup).
	e50 := r.TxEnergyWithPER(500, 0.5)
	perAttempt := base - r.StartupJ
	if math.Abs((e50-r.StartupJ)-2*perAttempt) > 1e-9 {
		t.Errorf("50%% PER cost %v, want startup+2x attempt %v", e50, r.StartupJ+2*perAttempt)
	}
	// Clamp at extreme PER: finite.
	if e := r.TxEnergyWithPER(500, 0.999); math.IsInf(e, 0) || e <= 0 {
		t.Errorf("extreme PER energy %v", e)
	}
}

// TxEnergyWithPER returns the expected delivery energy for payloadBytes
// under a per-frame packet-error rate: each frame is retransmitted until
// acknowledged (geometric distribution, expected 1/(1−per) attempts),
// which is how body-area links spend energy when the channel fades. PER
// is clamped to [0, 0.95]. No program uses it: the link's ARQ charges
// each attempt it makes through TxEnergyJ.
func (r RadioModel) TxEnergyWithPER(payloadBytes int, per float64) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	if per < 0 {
		per = 0
	}
	if per > 0.95 {
		per = 0.95
	}
	frames := r.Frames(payloadBytes)
	airBytes := payloadBytes + frames*r.OverheadBytes
	txTime := float64(airBytes*8) / r.BitrateBps
	ackTime := float64(frames) * r.AckListenS
	attempts := 1 / (1 - per)
	return r.StartupJ + (txTime*r.TxPowerW+ackTime*r.RxPowerW)*attempts
}
