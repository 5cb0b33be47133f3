package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

func TestServeMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	set := NewSet(reg)
	set.Link.Retransmissions.Add(3)
	set.Gateway.QueueDepth.Set(2)
	set.Stages.Record(StageCS, 1500)
	set.Link.RadioEnergyJ.Add(0.012)

	srv, err := ServeOpts("127.0.0.1:0", reg, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("invalid /metrics JSON: %v", err)
	}
	if snap.Counters["link.retransmissions"] != 3 {
		t.Errorf("retx counter %d", snap.Counters["link.retransmissions"])
	}
	if snap.Gauges["gateway.queue.depth"].Value != 2 {
		t.Errorf("queue gauge %+v", snap.Gauges["gateway.queue.depth"])
	}
	if h := snap.Histograms["pipeline.stage.cs.ns"]; h.Count != 1 {
		t.Errorf("cs stage histogram %+v", h)
	}
	if snap.Floats["link.radio.energy_j"] != 0.012 {
		t.Errorf("radio energy %v", snap.Floats["link.radio.energy_j"])
	}

	// The expvar and pprof surfaces respond too.
	for _, path := range []string{"/debug/vars", "/debug/pprof/cmdline"} {
		r, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, r.StatusCode)
		}
	}
}

// Shutdown must let an in-flight scrape finish, refuse new connections,
// and stay callable twice without panicking.
func TestServerShutdownDrains(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.shutdown").Add(7)
	srv, err := ServeOpts("127.0.0.1:0", reg, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// Open a scrape, then shut down while its response may still be in
	// flight; the request must complete with the full JSON body.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("in-flight scrape: %v", err)
	}
	resp.Body.Close()
	if snap.Counters["test.shutdown"] != 7 {
		t.Errorf("scrape during shutdown returned %d, want 7", snap.Counters["test.shutdown"])
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The listener is gone: new scrapes must fail.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("scrape after Shutdown succeeded, want connection error")
	}

	// A second Shutdown is a safe no-op.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck — must simply not panic
}

func TestServeTwiceDoesNotPanic(t *testing.T) {
	// expvar registration is global and panics on duplicates; Serve must
	// absorb repeated use (tests, multiple runs in one process).
	a, err := ServeOpts("127.0.0.1:0", NewRegistry(), HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown(context.Background()) //nolint:errcheck
	b, err := ServeOpts("127.0.0.1:0", NewRegistry(), HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown(context.Background()) //nolint:errcheck
}
