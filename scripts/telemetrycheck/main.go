// Command telemetrycheck validates a wbsn telemetry listener. It
// fetches /metrics, checks it parses into a telemetry.Snapshot and that
// each required metric exists and has seen traffic. It then checks the
// control plane: /healthz and /buildinfo answer well-formed, /traces
// carries end-to-end window trees that each stitch node-side spans to
// gateway-side spans, and /sessions parses. CI's endpoint smoke polls
// it until the fleet sweep has populated every layer; the netgw soak
// runs it once after the traffic.
//
// Usage:
//
//	telemetrycheck [-min-trees N] [-want-sessions N] [-evict-one] [-allow-draining] <base-url> [required-metric ...]
//
// base-url is the listener root (http://host:port). A required counter
// or histogram must be non-zero, a float counter positive; a gauge only
// has to be present (queue depths legitimately idle at zero). With
// -evict-one the first listed session is POSTed to
// /sessions/{id}/evict and the immediately following /sessions poll
// must no longer list it. Exit status 0 means every requirement held.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

var client = &http.Client{Timeout: 10 * time.Second}

func main() {
	minTrees := flag.Int("min-trees", 1, "minimum published trace trees required")
	wantSessions := flag.Int("want-sessions", -1, "exact /sessions count required (-1 skips)")
	evictOne := flag.Bool("evict-one", false, "evict the first listed session and verify the next poll misses it")
	allowDraining := flag.Bool("allow-draining", false, "accept a 503 (draining) /healthz — for processes checked after their run ended")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: telemetrycheck [-min-trees N] [-want-sessions N] [-evict-one] [-allow-draining] <base-url> [required-metric ...]")
		os.Exit(2)
	}
	base := flag.Arg(0)

	var snap telemetry.Snapshot
	getJSON(base+"/metrics", &snap)
	for _, key := range flag.Args()[1:] {
		if err := check(&snap, key); err != nil {
			fail("%v", err)
		}
	}

	// /healthz must answer 200 on a live process (or 503 once it drains).
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		fail("healthz: %v", err)
	}
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case *allowDraining && resp.StatusCode == http.StatusServiceUnavailable:
	default:
		fail("healthz: status %d", resp.StatusCode)
	}

	// /buildinfo must be a valid provenance document.
	var bi telemetry.BuildInfo
	getJSON(base+"/buildinfo", &bi)
	if bi.GoVersion == "" {
		fail("buildinfo: empty go_version")
	}

	// /traces: a published tree exists only for a delivered window, and
	// must span both sides of the wire.
	var traces trace.Snapshot
	getJSON(base+"/traces", &traces)
	trees := append(traces.Recent, traces.Slowest...)
	if len(traces.Recent) < *minTrees {
		fail("traces: %d recent trees, want >= %d (recorded %d, dropped %d)",
			len(traces.Recent), *minTrees, traces.Recorded, traces.Dropped)
	}
	for i, tr := range trees {
		if tr.Trace == "" {
			fail("traces: tree %d has an empty id", i)
		}
		if len(tr.Node) == 0 {
			fail("traces: tree %d (%s) has no node-side spans", i, tr.Trace)
		}
		if len(tr.Gateway) == 0 {
			fail("traces: tree %d (%s) has no gateway-side spans", i, tr.Trace)
		}
	}

	// /sessions must parse; optionally pin the count and round-trip an
	// eviction.
	sess := getSessions(base)
	if *wantSessions >= 0 && len(sess.Sessions) != *wantSessions {
		fail("sessions: %d listed, want %d", len(sess.Sessions), *wantSessions)
	}
	if *evictOne {
		if len(sess.Sessions) == 0 {
			fail("evict-one: no sessions to evict")
		}
		id := sess.Sessions[0].ID
		resp, err := client.Post(fmt.Sprintf("%s/sessions/%d/evict", base, id), "", nil)
		if err != nil {
			fail("evict %d: %v", id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("evict %d: status %d", id, resp.StatusCode)
		}
		for _, s := range getSessions(base).Sessions {
			if s.ID == id {
				fail("evict %d: session still listed on the next poll", id)
			}
		}
		fmt.Printf("telemetrycheck: evicted session %d, next poll clean\n", id)
	}

	fmt.Printf("telemetrycheck: ok (%d counters, %d histograms, %d gauges; %d trees: %d recent, %d slowest; recorded %d, dropped %d; %d sessions)\n",
		len(snap.Counters), len(snap.Histograms), len(snap.Gauges),
		len(trees), len(traces.Recent), len(traces.Slowest), traces.Recorded, traces.Dropped, len(sess.Sessions))
}

func check(snap *telemetry.Snapshot, key string) error {
	if v, ok := snap.Counters[key]; ok {
		if v == 0 {
			return fmt.Errorf("counter %q has seen no traffic", key)
		}
		return nil
	}
	if v, ok := snap.Floats[key]; ok {
		if v <= 0 {
			return fmt.Errorf("float counter %q has seen no traffic", key)
		}
		return nil
	}
	if h, ok := snap.Histograms[key]; ok {
		if h.Count == 0 {
			return fmt.Errorf("histogram %q has seen no observations", key)
		}
		return nil
	}
	if _, ok := snap.Gauges[key]; ok {
		return nil
	}
	return fmt.Errorf("metric %q missing from snapshot", key)
}

type sessionsDoc struct {
	Draining bool                    `json:"draining"`
	Sessions []telemetry.SessionInfo `json:"sessions"`
}

func getSessions(base string) sessionsDoc {
	var doc sessionsDoc
	getJSON(base+"/sessions", &doc)
	return doc
}

func getJSON(url string, v any) {
	resp, err := client.Get(url)
	if err != nil {
		fail("fetch %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("fetch %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		fail("%s: invalid JSON: %v", url, err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "telemetrycheck: "+format+"\n", args...)
	os.Exit(1)
}
