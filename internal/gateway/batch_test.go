package gateway

import (
	"sync"
	"testing"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/telemetry"
)

func packetWindows(events []core.Event) [][][]float64 {
	var windows [][][]float64
	for _, e := range events {
		if e.Kind == core.EventPacket && e.Measurements != nil {
			windows = append(windows, e.Measurements)
		}
	}
	return windows
}

func copyLeads(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for li := range xs {
		out[li] = append([]float64(nil), xs[li]...)
	}
	return out
}

// warmReference decodes every window in order through a batch=1
// engine (one window per dispatch), returning one snapshot per window.
// Every warm stream that replays these windows — batched with other
// streams or not — must reproduce it bit for bit.
func warmReference(t *testing.T, cfg Config, windows [][][]float64) [][][]float64 {
	t.Helper()
	seq, err := NewEngine(cfg, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	ws := cs.NewWarmState()
	refs := make([][][]float64, len(windows))
	for wi, win := range windows {
		j, err := seq.SubmitWarm(win, ws)
		if err != nil {
			t.Fatal(err)
		}
		leads, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		refs[wi] = copyLeads(leads)
	}
	return refs
}

// A batch>1 engine folding warm windows from several streams into one
// structure-of-arrays solver pass must produce exactly the
// one-window-per-dispatch output for every stream — the engine-level
// face of the solver bit-identity contract (which internal/cs checks
// against a frozen scalar oracle). Covers both the greedy-only and the
// BatchWait deadline-bounded batch-forming policies, and a stream
// count that is not a multiple of the batch so partial batches form.
func TestEngineBatchedMatchesSequential(t *testing.T) {
	events, ncfg := encodeRecord(t, 58, 8)
	cfg := fastConfig(ncfg)
	cfg.Solver.Tol = 1e-3
	windows := packetWindows(events)
	if len(windows) < 2 {
		t.Fatalf("need >= 2 windows, got %d", len(windows))
	}
	refs := warmReference(t, cfg, windows)

	const streams = 5
	for _, ecfg := range []EngineConfig{
		{Workers: 1, Batch: 4},
		{Workers: 2, Batch: 3, BatchWait: 2 * time.Millisecond},
	} {
		eng, err := NewEngine(cfg, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		wss := make([]*cs.WarmState, streams)
		for s := range wss {
			wss[s] = cs.NewWarmState()
		}
		jobs := make([]*Job, streams)
		for wi, win := range windows {
			for s := range wss {
				if jobs[s], err = eng.SubmitWarm(win, wss[s]); err != nil {
					t.Fatal(err)
				}
			}
			for _, j := range jobs {
				got, err := j.Wait()
				if err != nil {
					t.Fatal(err)
				}
				equalSignals(t, refs[wi], got, "batched warm decode")
			}
		}
		eng.Close()
	}
}

// Concurrent warm producers hammering one batch-forming engine: each
// producer owns a warm stream and replays the same record, so every
// producer must observe the sequential reference regardless of how its
// windows were grouped with other streams' windows. Run under -race
// this is the batch path's data-race certificate.
func TestEngineBatchedRaceHammer(t *testing.T) {
	events, ncfg := encodeRecord(t, 59, 8)
	cfg := fastConfig(ncfg)
	cfg.Solver.Tol = 1e-3
	windows := packetWindows(events)
	refs := warmReference(t, cfg, windows)

	eng, err := NewEngine(cfg, EngineConfig{Workers: 3, Batch: 4, BatchWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const producers = 8
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ws := cs.NewWarmState()
			for wi, win := range windows {
				j, err := eng.SubmitWarm(win, ws)
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				got, err := j.Wait()
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				for li := range refs[wi] {
					for i := range refs[wi][li] {
						if got[li][i] != refs[wi][li][i] {
							t.Errorf("producer %d window %d lead %d sample %d differs from sequential", p, wi, li, i)
							return
						}
					}
				}
			}
		}(p)
	}
	wg.Wait()
}

// The batch histograms must account for every decoded window, and a
// batch=1 engine must leave them untouched (it has no batch-forming
// stage to report).
func TestEngineBatchTelemetry(t *testing.T) {
	events, ncfg := encodeRecord(t, 60, 8)
	cfg := fastConfig(ncfg)
	windows := packetWindows(events)

	run := func(batch int) *telemetry.GatewayMetrics {
		reg := telemetry.NewRegistry()
		tm := telemetry.NewGatewayMetrics(reg, telemetry.NewStageSet(reg))
		eng, err := NewEngine(cfg, EngineConfig{Workers: 2, Batch: batch, Metrics: tm})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.DecodeWindows(windows); err != nil {
			t.Fatal(err)
		}
		return tm
	}

	tm := run(4)
	if got := tm.Decoded.Value(); got != uint64(len(windows)) {
		t.Errorf("decoded %d, want %d", got, len(windows))
	}
	dispatches := tm.BatchWindows.Snapshot().Count
	if dispatches == 0 || dispatches > uint64(len(windows)) {
		t.Errorf("batch dispatches %d, want 1..%d", dispatches, len(windows))
	}
	if tm.BatchFillPct.Snapshot().Count != dispatches {
		t.Errorf("fill observations %d, want %d", tm.BatchFillPct.Snapshot().Count, dispatches)
	}

	if tm := run(1); tm.BatchWindows.Snapshot().Count != 0 || tm.BatchFillPct.Snapshot().Count != 0 {
		t.Errorf("sequential engine reported batch histograms: %d/%d observations",
			tm.BatchWindows.Snapshot().Count, tm.BatchFillPct.Snapshot().Count)
	}
}
