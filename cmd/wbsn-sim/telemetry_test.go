package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"wbsn/internal/fleet"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
)

// TestTelemetryEndToEnd is the acceptance check for the -telemetry
// flag: bring the inspection endpoint up on an ephemeral port, drive a
// small lossy fleet through the full node → link → gateway chain, and
// scrape /metrics — the JSON must carry the per-stage latency
// histograms, the ARQ counters, the gateway queue gauge and the radio
// energy ledger.
func TestTelemetryEndToEnd(t *testing.T) {
	set, addr, stop, err := startTelemetry("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	cl, err := fleet.NewCluster(fleet.ClusterConfig{
		Fleet: fleet.Config{
			Patients:    3,
			Seed:        7,
			SolverIters: 30,
			Channel: link.ChannelConfig{
				PGoodToBad: 0.08, PBadToGood: 0.25, LossGood: 0.05, LossBad: 0.6,
			},
			Telemetry: set,
		},
		GroupShards: 2,
		SessionS:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rep, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patients != 3 || rep.Rounds != 1 {
		t.Fatalf("fleet ran %d patients for %d rounds", rep.Patients, rep.Rounds)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}

	for _, h := range []string{
		"pipeline.stage.acquire.ns",
		"pipeline.stage.cs.ns",
		"pipeline.stage.link.ns",
		"pipeline.stage.gateway_decode.ns",
		"gateway.decode.ns",
		"link.radio.packet_uj",
	} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %q empty in /metrics", h)
		}
	}
	if snap.Counters["link.packets"] == 0 {
		t.Error("link.packets counter empty")
	}
	if snap.Counters["link.retransmissions"] == 0 {
		t.Error("lossy channel produced no retransmissions in /metrics")
	}
	if _, ok := snap.Gauges["gateway.queue.depth"]; !ok {
		t.Error("gateway.queue.depth gauge missing")
	}
	if snap.Gauges["gateway.queue.depth"].Value != 0 {
		t.Errorf("queue depth %d after run, want 0", snap.Gauges["gateway.queue.depth"].Value)
	}
	if snap.Floats["link.radio.energy_j"] <= 0 {
		t.Error("link.radio.energy_j not accumulated")
	}
	if snap.Counters["fleet.patients.done"] != 3 {
		t.Errorf("fleet.patients.done %d, want 3", snap.Counters["fleet.patients.done"])
	}
}
