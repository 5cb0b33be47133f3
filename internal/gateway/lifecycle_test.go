package gateway

import (
	"errors"
	"sync"
	"testing"
)

// goodWindow builds a shape-valid measurement window for cfg.
func goodWindow(t *testing.T, cfg Config) [][]float64 {
	t.Helper()
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := make([][]float64, cfg.Leads)
	for i := range w {
		w[i] = make([]float64, rx.m)
	}
	return w
}

// Submit, SubmitWarm and DecodeWindows after Close must return
// ErrEngineClosed — a sentinel, not a panic on a closed channel — and
// double-Close must be a safe no-op.
func TestEngineSubmitAfterClose(t *testing.T) {
	_, ncfg := encodeRecord(t, 57, 2)
	cfg := fastConfig(ncfg)
	eng, err := NewEngine(cfg, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := goodWindow(t, cfg)
	eng.Close()
	if _, err := eng.Submit(w); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Submit after Close: got %v, want ErrEngineClosed", err)
	}
	if _, err := eng.SubmitWarm(w, nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("SubmitWarm after Close: got %v, want ErrEngineClosed", err)
	}
	if _, err := eng.DecodeWindows([][][]float64{w}); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("DecodeWindows after Close: got %v, want ErrEngineClosed", err)
	}
	// The sentinel must remain distinguishable from shape errors.
	if errors.Is(ErrEngineClosed, ErrGateway) {
		t.Error("ErrEngineClosed must not alias ErrGateway")
	}
}

// TestEngineDoubleCloseConcurrent hammers Close against Submit from
// many goroutines: every outcome must be either a decoded window or
// ErrEngineClosed — never a panic, never a hang.
func TestEngineDoubleCloseConcurrent(t *testing.T) {
	_, ncfg := encodeRecord(t, 58, 2)
	cfg := fastConfig(ncfg)
	cfg.Solver.Iters = 4
	eng, err := NewEngine(cfg, EngineConfig{Workers: 2, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := goodWindow(t, cfg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				j, err := eng.Submit(w)
				if err != nil {
					if !errors.Is(err, ErrEngineClosed) {
						t.Errorf("Submit: got %v, want nil or ErrEngineClosed", err)
					}
					return
				}
				if _, err := j.Wait(); err != nil {
					t.Errorf("Wait: %v", err)
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Close() // racing double (triple) close must stay a no-op
		}()
	}
	wg.Wait()
	eng.Close()
}
