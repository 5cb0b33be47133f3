package gateway

import (
	"sync"
	"testing"

	"wbsn/internal/core"
	"wbsn/internal/ecg"
	"wbsn/internal/telemetry"
)

// encodeRecord runs a record through a ModeCS node stream and returns
// the packet events plus the node config used.
func encodeRecord(t testing.TB, seed int64, duration float64) ([]core.Event, core.Config) {
	t.Helper()
	rec := ecg.Generate(ecg.Config{Seed: seed, Duration: duration})
	ncfg := core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: 9}
	node, err := core.NewNode(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([][]float64, len(rec.Leads))
	for li := range chunk {
		chunk[li] = rec.Clean[li]
	}
	events, err := stream.PushBlock(chunk)
	if err != nil {
		t.Fatal(err)
	}
	return events, node.Config()
}

func fastConfig(ncfg core.Config) Config {
	cfg := MatchNode(ncfg)
	cfg.Solver.Iters = 40
	return cfg
}

func equalSignals(t *testing.T, want, got [][]float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d leads, want %d", label, len(got), len(want))
	}
	for li := range want {
		if len(want[li]) != len(got[li]) {
			t.Fatalf("%s: lead %d has %d samples, want %d", label, li, len(got[li]), len(want[li]))
		}
		for i := range want[li] {
			if got[li][i] != want[li][i] {
				t.Fatalf("%s: lead %d sample %d = %g, want %g (not bit-identical)", label, li, i, got[li][i], want[li][i])
			}
		}
	}
}

// The engine must produce exactly the serial receiver's output — same
// windows, same order, bit for bit — at any worker count.
func TestEngineMatchesSerial(t *testing.T) {
	events, ncfg := encodeRecord(t, 52, 10)
	cfg := fastConfig(ncfg)
	serial, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.ConsumeEvents(events); err != nil {
		t.Fatal(err)
	}
	if serial.SamplesReceived() == 0 {
		t.Fatal("no windows decoded")
	}
	for _, workers := range []int{1, 2, 4} {
		eng, err := NewEngine(cfg, EngineConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rx.AttachEngine(eng); err != nil {
			t.Fatal(err)
		}
		if err := rx.ConsumeEvents(events); err != nil {
			t.Fatal(err)
		}
		equalSignals(t, serial.Signal(), rx.Signal(), "engine ConsumeEvents")
		// The single-packet path must route through the engine too.
		rx.Reset()
		for _, e := range events {
			if e.Kind != core.EventPacket || e.Measurements == nil {
				continue
			}
			if err := rx.ConsumePacket(e.Measurements); err != nil {
				t.Fatal(err)
			}
		}
		equalSignals(t, serial.Signal(), rx.Signal(), "engine ConsumePacket")
		eng.Close()
	}
}

// DecodeWindows must return results in submission order even when
// later windows finish first.
func TestEngineOrderedDelivery(t *testing.T) {
	events, ncfg := encodeRecord(t, 53, 12)
	cfg := fastConfig(ncfg)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var windows [][][]float64
	for _, e := range events {
		if e.Kind == core.EventPacket && e.Measurements != nil {
			windows = append(windows, e.Measurements)
		}
	}
	if len(windows) < 3 {
		t.Fatalf("need >= 3 windows, got %d", len(windows))
	}
	// Serial per-window references.
	refs := make([][][]float64, len(windows))
	for i, w := range windows {
		rx.Reset()
		if err := rx.ConsumePacket(w); err != nil {
			t.Fatal(err)
		}
		refs[i] = make([][]float64, len(rx.Signal()))
		for li, l := range rx.Signal() {
			refs[i][li] = append([]float64(nil), l...)
		}
	}
	eng, err := NewEngine(cfg, EngineConfig{Workers: 4, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	decoded, err := eng.DecodeWindows(windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(windows) {
		t.Fatalf("decoded %d windows, want %d", len(decoded), len(windows))
	}
	for i := range decoded {
		equalSignals(t, refs[i], decoded[i], "DecodeWindows order")
	}
}

// Many producers hammering one engine concurrently must each observe
// bit-identical output. Run under -race this is the engine's data-race
// certificate.
func TestEngineRaceHammer(t *testing.T) {
	events, ncfg := encodeRecord(t, 54, 8)
	cfg := fastConfig(ncfg)
	var windows [][][]float64
	for _, e := range events {
		if e.Kind == core.EventPacket && e.Measurements != nil {
			windows = append(windows, e.Measurements)
		}
	}
	serial, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([][][]float64, len(windows))
	for i, w := range windows {
		serial.Reset()
		if err := serial.ConsumePacket(w); err != nil {
			t.Fatal(err)
		}
		refs[i] = make([][]float64, len(serial.Signal()))
		for li, l := range serial.Signal() {
			refs[i][li] = append([]float64(nil), l...)
		}
	}
	eng, err := NewEngine(cfg, EngineConfig{Workers: 4, Queue: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const producers = 6
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				i := (p + rep) % len(windows)
				j, err := eng.Submit(windows[i])
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				got, err := j.Wait()
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				for li := range refs[i] {
					for s := range refs[i][li] {
						if got[li][s] != refs[i][li][s] {
							t.Errorf("producer %d window %d lead %d sample %d differs", p, i, li, s)
							return
						}
					}
				}
			}
		}(p)
	}
	wg.Wait()
}

func TestEngineCloseAndValidation(t *testing.T) {
	_, ncfg := encodeRecord(t, 55, 4)
	cfg := fastConfig(ncfg)
	eng, err := NewEngine(cfg, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.ecfg.Workers != 2 {
		t.Errorf("workers = %d, want 2", eng.ecfg.Workers)
	}
	// Shape validation happens before queueing.
	if _, err := eng.Submit(make([][]float64, 1)); err != ErrGateway {
		t.Errorf("bad lead count: got %v, want ErrGateway", err)
	}
	bad := make([][]float64, cfg.Leads)
	for i := range bad {
		bad[i] = make([]float64, 3)
	}
	if _, err := eng.Submit(bad); err != ErrGateway {
		t.Errorf("bad measurement length: got %v, want ErrGateway", err)
	}
	eng.Close()
	eng.Close() // idempotent
	good := make([][]float64, cfg.Leads)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		good[i] = make([]float64, rx.m)
	}
	if _, err := eng.Submit(good); err != ErrEngineClosed {
		t.Errorf("submit after close: got %v, want ErrEngineClosed", err)
	}
	// AttachEngine must reject configuration mismatches: a different
	// lead count, or a different CR (measurement length).
	leadsMismatch := cfg
	leadsMismatch.Leads = cfg.Leads + 1
	crMismatch := cfg
	crMismatch.CSRatio = cfg.CSRatio + 10
	for _, mismatch := range []Config{leadsMismatch, crMismatch} {
		eng2, err := NewEngine(mismatch, EngineConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng2.Close()
		if err := rx.AttachEngine(eng2); err != ErrGateway {
			t.Errorf("mismatched engine attach (leads %d, CR %v): got %v, want ErrGateway",
				mismatch.Leads, mismatch.CSRatio, err)
		}
	}
	if err := rx.AttachEngine(nil); err != nil {
		t.Errorf("detach: %v", err)
	}
}

func TestReceiverReset(t *testing.T) {
	events, ncfg := encodeRecord(t, 56, 6)
	cfg := fastConfig(ncfg)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.ConsumeEvents(events); err != nil {
		t.Fatal(err)
	}
	first := make([][]float64, len(rx.Signal()))
	for li, l := range rx.Signal() {
		first[li] = append([]float64(nil), l...)
	}
	rx.Reset()
	if rx.SamplesReceived() != 0 {
		t.Fatalf("after Reset: %d samples", rx.SamplesReceived())
	}
	if err := rx.ConsumeEvents(events); err != nil {
		t.Fatal(err)
	}
	equalSignals(t, first, rx.Signal(), "replay after Reset")
}

// TestEngineTelemetry decodes a batch with the gateway metric family
// attached and checks the live gauges settle back to idle, every
// submitted window is accounted for, and — the invariant everything
// else rests on — the reconstructed signal is bit-identical to an
// uninstrumented engine's.
func TestEngineTelemetry(t *testing.T) {
	events, ncfg := encodeRecord(t, 57, 10)
	cfg := fastConfig(ncfg)

	decode := func(ecfg EngineConfig) [][]float64 {
		eng, err := NewEngine(cfg, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		rx, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rx.AttachEngine(eng); err != nil {
			t.Fatal(err)
		}
		if err := rx.ConsumeEvents(events); err != nil {
			t.Fatal(err)
		}
		return rx.Signal()
	}

	reg := telemetry.NewRegistry()
	tm := telemetry.NewGatewayMetrics(reg, telemetry.NewStageSet(reg))
	instrumented := decode(EngineConfig{Workers: 3, Metrics: tm})
	bare := decode(EngineConfig{Workers: 3})
	equalSignals(t, bare, instrumented, "telemetry-attached engine")

	windows := 0
	for _, e := range events {
		if e.Kind == core.EventPacket && e.Measurements != nil {
			windows++
		}
	}
	if got := tm.Submitted.Value(); got != uint64(windows) {
		t.Errorf("submitted %d, want %d", got, windows)
	}
	if got := tm.Decoded.Value(); got != uint64(windows) {
		t.Errorf("decoded %d, want %d", got, windows)
	}
	if tm.DecodeErrors.Value() != 0 {
		t.Errorf("decode errors %d", tm.DecodeErrors.Value())
	}
	if tm.QueueDepth.Value() != 0 {
		t.Errorf("queue depth %d after drain, want 0", tm.QueueDepth.Value())
	}
	if tm.BusyWorkers.Value() != 0 {
		t.Errorf("busy workers %d after drain, want 0", tm.BusyWorkers.Value())
	}
	if tm.Workers.Value() != 3 {
		t.Errorf("workers gauge %d, want 3", tm.Workers.Value())
	}
	if tm.DecodeNs.Snapshot().Count != uint64(windows) {
		t.Errorf("decode latency observations %d, want %d", tm.DecodeNs.Snapshot().Count, windows)
	}
	if got := tm.Stages.Stage(telemetry.StageGatewayDecode).Snapshot().Count; got != uint64(windows) {
		t.Errorf("gateway_decode spans %d, want %d", got, windows)
	}
	if tm.QueueDepth.High() < 1 {
		t.Errorf("queue depth watermark %d, want >= 1", tm.QueueDepth.High())
	}
}
