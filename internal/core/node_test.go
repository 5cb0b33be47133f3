package core

import (
	"math"
	"testing"

	"wbsn/internal/af"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/link"
)

func testRecord(seed int64, dur float64) *ecg.Record {
	return ecg.Generate(ecg.Config{Seed: seed, Duration: dur, Noise: ecg.NoiseConfig{EMG: 0.015}})
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{Mode: Mode(99)}); err != ErrConfig {
		t.Error("unknown mode should fail")
	}
	if _, err := NewNode(Config{Mode: ModeClassification}); err != ErrNoClassifier {
		t.Error("classification without classifier should fail")
	}
	n, err := NewNode(Config{Mode: ModeCS})
	if err != nil {
		t.Fatal(err)
	}
	if n.Config().Fs != 256 || n.Config().CSRatio != 65.9 {
		t.Error("defaults not applied")
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeRawStreaming:   "raw-streaming",
		ModeCS:             "compressed-sensing",
		ModeDelineation:    "delineation",
		ModeClassification: "classification",
		ModeAFAlarm:        "af-alarm",
		Mode(42):           "unknown",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

// TestProcessPricesCSWindowsAsTheLink: Process charges a record one
// radio frame per window. A CS window is one coded link frame — startup,
// frame rounding and the codec's framing included — so its radio energy
// per window equals what a lossless link charges for the node's stream
// of the same record; a raw window is the 2,304-byte packet that
// Fig. 6's raw row charges.
func TestProcessPricesCSWindowsAsTheLink(t *testing.T) {
	rec := testRecord(3, 20)
	t.Run("cs", func(t *testing.T) {
		n, err := NewNode(Config{Mode: ModeCS, CSRatio: 60})
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Process(rec)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := n.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		events, err := stream.PushBlock(rec.Leads)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := link.NewChannel(link.ChannelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		lk, err := link.NewLink(link.ARQConfig{}, ch, dropSink{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if ok, err := lk.SendMeasurements(e.At, e.Measurements); err != nil || !ok {
				t.Fatalf("window at %d: delivered %v, err %v", e.At, ok, err)
			}
		}
		rep := lk.Report()
		windows := rec.Len() / n.Config().CSWindow
		if rep.Packets != windows || rep.Attempts != windows {
			t.Fatalf("link sent %d packets in %d attempts, want %d windows", rep.Packets, rep.Attempts, windows)
		}
		got, want := res.Energy.RadioJ/float64(windows), rep.EnergyJ/float64(rep.Packets)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("Process radio %.6f µJ per window, lossless link %.6f µJ", got*1e6, want*1e6)
		}
	})
	t.Run("raw", func(t *testing.T) {
		n, err := NewNode(Config{Mode: ModeRawStreaming})
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Process(rec)
		if err != nil {
			t.Fatal(err)
		}
		w := energy.WindowSpec{SamplesPerLead: n.Config().CSWindow, Leads: len(rec.Leads)}
		windows := rec.Len() / w.SamplesPerLead
		got := res.Energy.RadioJ / float64(windows)
		want := energy.DefaultNode().RawStreamingWindow(w).RadioJ
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("Process radio %.6f µJ per window, Fig. 6 raw window %.6f µJ", got*1e6, want*1e6)
		}
	})
}

// dropSink is a link.Sink that discards every window.
type dropSink struct{}

func (dropSink) ConsumePacket([][]float64) error { return nil }
func (dropSink) ConsumeLostPacket()              {}

func TestRawStreamingBandwidth(t *testing.T) {
	rec := testRecord(1, 30)
	n, _ := NewNode(Config{Mode: ModeRawStreaming})
	res, err := n.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	// 3 leads × 256 Hz × 12 bits = 1152 B/s.
	if res.TxBytesPerSecond < 1100 || res.TxBytesPerSecond > 1200 {
		t.Errorf("raw bandwidth %.0f B/s, want ~1152", res.TxBytesPerSecond)
	}
	if res.Energy.RadioJ <= 0 || res.Energy.SampleJ <= 0 {
		t.Error("energy shares missing")
	}
	if res.Energy.CompJ != 0 {
		t.Error("raw streaming should not charge compression energy")
	}
}

func TestCSReducesBandwidth(t *testing.T) {
	rec := testRecord(2, 30)
	raw, _ := NewNode(Config{Mode: ModeRawStreaming})
	csn, _ := NewNode(Config{Mode: ModeCS})
	rr, err := raw.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := csn.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rc.TxBytesPerSecond / rr.TxBytesPerSecond
	// CR 65.9% -> ~34% of the raw bytes (windowing quantisation aside).
	if ratio < 0.25 || ratio > 0.45 {
		t.Errorf("CS bandwidth ratio %.3f, want ~0.34", ratio)
	}
	if rc.Energy.CompJ <= 0 {
		t.Error("CS must charge compression energy")
	}
	if rc.Energy.TotalJ() >= rr.Energy.TotalJ() {
		t.Error("CS should reduce total node energy (Figure 6)")
	}
}

func TestDelineationModeEmitsBeats(t *testing.T) {
	rec := testRecord(3, 30)
	n, _ := NewNode(Config{Mode: ModeDelineation})
	res, err := n.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Beats) < len(rec.Beats)-2 || len(res.Beats) > len(rec.Beats)+2 {
		t.Errorf("delineated %d beats, truth %d", len(res.Beats), len(rec.Beats))
	}
	// 20 bytes per beat at ~1.2 beats/s: tens of bytes per second.
	if res.TxBytesPerSecond > 60 {
		t.Errorf("delineation bandwidth %.1f B/s too high", res.TxBytesPerSecond)
	}
	for _, b := range res.Beats {
		if b.Label != -1 {
			t.Error("delineation mode should not label beats")
		}
	}
}

func TestClassificationMode(t *testing.T) {
	train := ecg.GenerateSet(ecg.Config{
		Duration: 90,
		Rhythm:   ecg.RhythmConfig{PVCRate: 0.1, APBRate: 0.05},
	}, 800, 3)
	cl, err := TrainClassifier(train, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := ecg.Generate(ecg.Config{Seed: 900, Duration: 60, Rhythm: ecg.RhythmConfig{PVCRate: 0.1}})
	n, err := NewNode(Config{Mode: ModeClassification, Classifier: cl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	labelled := 0
	correctV := 0
	totalV := 0
	for i, b := range res.Beats {
		if b.Label >= 0 {
			labelled++
		}
		_ = i
	}
	if labelled < len(res.Beats)*8/10 {
		t.Errorf("only %d/%d beats labelled", labelled, len(res.Beats))
	}
	// Align detected beats to truth by nearest R and check PVC recall.
	for _, tb := range rec.Beats {
		if tb.Label != ecg.LabelPVC {
			continue
		}
		totalV++
		for _, db := range res.Beats {
			d := db.Fiducials.R - tb.Fid.RPeak
			if d < 0 {
				d = -d
			}
			if d <= 10 && db.Label == int(ecg.LabelPVC) {
				correctV++
				break
			}
		}
	}
	if totalV > 0 && float64(correctV)/float64(totalV) < 0.7 {
		t.Errorf("node-level PVC recall %d/%d", correctV, totalV)
	}
}

func TestAFAlarmMode(t *testing.T) {
	n, err := NewNode(Config{Mode: ModeAFAlarm})
	if err != nil {
		t.Fatal(err)
	}
	nsr := testRecord(4, 60)
	resN, err := n.Process(nsr)
	if err != nil {
		t.Fatal(err)
	}
	if resN.AFAlarm {
		t.Error("NSR record raised an AF alarm")
	}
	afRec := ecg.Generate(ecg.Config{Seed: 5, Duration: 60, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	resA, err := n.Process(afRec)
	if err != nil {
		t.Fatal(err)
	}
	if !resA.AFAlarm {
		t.Error("AF record did not raise an alarm")
	}
	// One decision per window of af.WindowBeats beats, hopping by half
	// a window.
	hop := af.WindowBeats / 2
	if want := (len(resA.Beats)-af.WindowBeats)/hop + 1; len(resA.AFDecisions) != want {
		t.Errorf("%d AF decisions over %d beats, want %d", len(resA.AFDecisions), len(resA.Beats), want)
	}
	for i, d := range resA.AFDecisions {
		if d.StartBeat != i*hop || d.AF != (d.Score >= af.Threshold) {
			t.Errorf("decision %d: start beat %d, score %.3f, AF %v", i, d.StartBeat, d.Score, d.AF)
		}
	}
	// Alarm mode transmits almost nothing.
	if resA.TxBytesPerSecond > 5 {
		t.Errorf("AF-alarm bandwidth %.2f B/s", resA.TxBytesPerSecond)
	}
}

func TestProcessRejectsCorruptRecord(t *testing.T) {
	n, _ := NewNode(Config{Mode: ModeRawStreaming})
	bad := &ecg.Record{}
	if _, err := n.Process(bad); err == nil {
		t.Error("empty record should fail validation")
	}
}

func TestLadderMonotonicity(t *testing.T) {
	// The Figure 1 claim: bandwidth and power fall as abstraction rises.
	rec := ecg.Generate(ecg.Config{Seed: 7, Duration: 60, Rhythm: ecg.RhythmConfig{PVCRate: 0.05}})
	rungs, err := Ladder(rec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rungs) != 5 {
		t.Fatalf("ladder has %d rungs", len(rungs))
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].TxBytesPerSecond >= rungs[i-1].TxBytesPerSecond {
			t.Errorf("bandwidth did not fall from %s (%.1f) to %s (%.1f)",
				rungs[i-1].Mode, rungs[i-1].TxBytesPerSecond,
				rungs[i].Mode, rungs[i].TxBytesPerSecond)
		}
	}
	// Battery lifetime grows up the ladder; the top rungs must beat a
	// week (the SmartCardia claim).
	if rungs[0].BatteryLifetimeH >= rungs[len(rungs)-1].BatteryLifetimeH {
		t.Error("battery lifetime should grow with abstraction")
	}
	if rungs[2].BatteryLifetimeH < 7*24 {
		t.Errorf("delineation-mode lifetime %.0f h, want >= one week", rungs[2].BatteryLifetimeH)
	}
}
