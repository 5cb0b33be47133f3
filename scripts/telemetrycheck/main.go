// Command telemetrycheck validates a wbsn-sim telemetry endpoint: it
// fetches the /metrics JSON (or reads it from stdin with "-"), checks
// it parses into a telemetry.Snapshot, and verifies each required
// metric name exists and has seen traffic. CI's endpoint smoke test
// polls it until the fleet sweep has populated every layer.
//
// Usage:
//
//	telemetrycheck <url|-> [required-metric ...]
//
// A required counter or histogram must be non-zero, a float counter
// positive; a gauge only has to be present (queue depths legitimately
// idle at zero). Exit status 0 means every requirement held.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"wbsn/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: telemetrycheck <url|-> [required-metric ...]")
		os.Exit(2)
	}
	src := os.Args[1]
	var body io.Reader
	if src == "-" {
		body = os.Stdin
	} else {
		client := &http.Client{Timeout: 10 * time.Second}
		resp, err := client.Get(src)
		if err != nil {
			fail("fetch %s: %v", src, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("fetch %s: status %d", src, resp.StatusCode)
		}
		body = resp.Body
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(body).Decode(&snap); err != nil {
		fail("metrics payload is not valid snapshot JSON: %v", err)
	}
	for _, key := range os.Args[2:] {
		if err := check(&snap, key); err != nil {
			fail("%v", err)
		}
	}
	fmt.Printf("telemetrycheck: ok (%d counters, %d histograms, %d gauges)\n",
		len(snap.Counters), len(snap.Histograms), len(snap.Gauges))
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

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "telemetrycheck: "+format+"\n", args...)
	os.Exit(1)
}
