package wbsn_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"wbsn/internal/cohort"
	"wbsn/internal/fleet"
	"wbsn/internal/netgw"
	"wbsn/internal/telemetry"
)

// workCountersGolden holds the text TestWorkCounters must print.
const workCountersGolden = "testdata/work_counters.txt"

// TestWorkCounters is the work-counter golden. It runs a short
// fixed-seed slice of each BENCHMARK.json workload's layer stack and
// prints the telemetry registry's deterministic counters: windows,
// packets, payload bytes, link attempts, radio µJ, FISTA iterations,
// warm resets, sessions and frames. Unlike a timing these read the same
// on every host, so the comparison with the checked-in file is a gate
// that does not move with the machine, and a change that moves the work
// shows up in review as a changed line of that file. On a mismatch the
// test prints the text it produced and the wanted text; regenerating
// the file is a copy of the former.
func TestWorkCounters(t *testing.T) {
	got := workFleet(t, "fleet-cs-lossy", fleet.CSLossyWorkload(workCohortSeed)) +
		workFleet(t, "fleet-delineation", fleet.DelineationWorkload(workCohortSeed)) +
		workNetGW(t)

	want, err := os.ReadFile(workCountersGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("work counters differ from %s; if the change is intended, replace the file with the text produced.\nproduced:\n%s\nwanted:\n%s",
			workCountersGolden, got, want)
	}
}

// workCohortSeed is the cohort seed of the fleet sections: the
// benchmark's default --seed, whose first two rounds they count.
const workCohortSeed = 1

// workTopologies are the two schedules every fleet section runs at.
// A patient's work does not depend on worker slots, decode workers or
// batch fill, so both must print the same text.
var workTopologies = []struct{ groups, shards, workers int }{{1, 1, 1}, {2, 2, 2}}

// workFleet runs two rounds of the workload cfg at each topology and
// returns the section's text.
func workFleet(t *testing.T, workload string, cfg fleet.ClusterConfig) string {
	t.Helper()
	cfg.Rounds = 2
	section := fmt.Sprintf("%s: %d patients, %d rounds of %g s", workload, cfg.Fleet.Patients, cfg.Rounds, cfg.SessionS)
	var texts []string
	for _, topo := range workTopologies {
		reg := telemetry.NewRegistry()
		gw := telemetry.NewGatewayMetrics(reg, nil)
		c := cfg
		c.Groups, c.GroupShards, c.Fleet.EngineWorkers = topo.groups, topo.shards, topo.workers
		c.Fleet.Telemetry = &telemetry.Set{
			Registry: reg,
			Node:     telemetry.NewNodeMetrics(reg, nil),
			Link:     telemetry.NewLinkMetrics(reg, nil),
			Gateway:  gw,
			Solver:   gw.Solver,
			Fleet:    telemetry.NewFleetMetrics(reg),
		}
		cl, err := fleet.NewCluster(c)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.Run()
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, workText(section, reg.Snapshot()))
	}
	if texts[0] != texts[1] {
		t.Errorf("%s: counters depend on the topology\n%+v:\n%s\n%+v:\n%s",
			section, workTopologies[0], texts[0], workTopologies[1], texts[1])
	}
	return texts[0]
}

// workNetGW serves two streams' 8 s records through an in-process
// server with wbsn-gateway's defaults (cold fixed-budget solver, batch
// 1) and returns the section's text, snapshotted after Shutdown so the
// connection counters have settled.
func workNetGW(t *testing.T) string {
	t.Helper()
	const seed, streams = cohort.FirmwareSeed, 2
	_, gcfg, err := netgw.GatewayConfigFor(seed, 60, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	gw := telemetry.NewGatewayMetrics(reg, nil)
	srv, err := netgw.Serve(netgw.ServerConfig{
		Addr:      "127.0.0.1:0",
		Gateway:   gcfg,
		Telemetry: &telemetry.Set{Registry: reg, Gateway: gw, Solver: gw.Solver, NetGW: telemetry.NewNetGWMetrics(reg)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A generous client timeout keeps a slow (-race) host from turning
	// into redials, which would move the connection counters.
	res, err := netgw.RunLoadgen(netgw.LoadgenConfig{
		Addr:    srv.Addr(),
		Streams: streams,
		Seed:    seed,
		Verify:  true,
		Client:  netgw.ClientConfig{Timeout: time.Minute},
	})
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsDone != streams || res.Failures != 0 || res.Mismatches != 0 {
		t.Fatalf("netgw loadgen: %s", res)
	}
	return workText(fmt.Sprintf("netgw-cold2: %d streams, one 8 s record each", streams), reg.Snapshot())
}

// workHistograms are the histograms whose observations count work
// rather than time.
var workHistograms = map[string]bool{"solver.iters": true, "link.radio.packet_uj": true, "link.packet.attempts": true}

// workText renders a snapshot's deterministic counters, one per line in
// name order: every integer counter, and count/sum/min/max of the work
// histograms. Timings, gauges and float counters are left out, as are
// the per-slot patient counts (fleet.shard.*), which follow the
// topology rather than the work.
func workText(section string, snap telemetry.Snapshot) string {
	var lines []string
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "fleet.shard.") {
			lines = append(lines, fmt.Sprintf("%s %d", name, v))
		}
	}
	for name, h := range snap.Histograms {
		if workHistograms[name] {
			lines = append(lines, fmt.Sprintf("%s count=%d sum=%d min=%d max=%d", name, h.Count, h.Sum, h.Min, h.Max))
		}
	}
	sort.Strings(lines)
	return "[" + section + "]\n" + strings.Join(lines, "\n") + "\n"
}
