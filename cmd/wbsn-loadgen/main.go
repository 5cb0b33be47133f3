// Command wbsn-loadgen replays synthetic fleet traffic against a
// running wbsn-gateway: hundreds of concurrent streams, each delivering
// link-encoded CS records over TCP with reconnection, exponential
// backoff and resume. The records are the patient cohort's network
// records (internal/cohort): AF rhythm, ambulatory noise and two clean
// sinus records in every four. With -verify every distinct record is also
// reconstructed in-process and each stream's server digest is compared
// against it — the bit-identity check the networked path is held to.
//
// The -fault-* flags arm the transport fault injector (connection
// resets, truncated writes, bit flips, slowloris pacing, duplicate
// reconnects); digests must stay bit-identical regardless.
//
// Exit status is non-zero when any stream fails or any digest
// mismatches, so the command doubles as the CI soak assertion:
//
//	wbsn-loadgen -addr 127.0.0.1:9700 -seed 42 -streams 100 \
//	    -run-for 30s -verify -fault-reset 0.05 -fault-bitflip 0.1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wbsn/internal/cohort"
	"wbsn/internal/netgw"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9700", "gateway address")
		streams     = flag.Int("streams", 8, "concurrent streams")
		records     = flag.Int("records", 0, "distinct records shared round-robin (0 = min(streams, 8))")
		durationS   = flag.Float64("duration", 8, "seconds of ECG per record")
		seed        = flag.Int64("seed", cohort.FirmwareSeed, "sensing-matrix seed and cohort seed of the records (must match the server)")
		csRatio     = flag.Float64("cs-ratio", 60, "compressed-sensing ratio in percent (must match the server)")
		solverIters = flag.Int("solver-iters", 0, "FISTA iteration budget for -verify (0 keeps the library default; must match the server)")
		solverTol   = flag.Float64("solver-tol", 0, "FISTA convergence tolerance for -verify (must match the server)")
		warm        = flag.Bool("warm", false, "warm-start flag (must match the server)")
		runFor      = flag.Duration("run-for", 0, "keep streams looping until this deadline (0 = one record per stream)")
		verify      = flag.Bool("verify", false, "reconstruct each record in-process and compare digests")
		traced      = flag.Bool("trace", false, "send version-4 (traced) link frames so the server's /traces stitches end-to-end window trees")
		inFlight    = flag.Int("in-flight", 0, "unacked windows per stream (0 = default 8)")
		timeout     = flag.Duration("timeout", 0, "per-operation client deadline (0 = default 5s)")
		attempts    = flag.Int("max-attempts", 0, "consecutive connection failures before a stream gives up (0 = default 10)")

		fReset     = flag.Float64("fault-reset", 0, "per-write probability of a connection reset")
		fTruncate  = flag.Float64("fault-truncate", 0, "per-write probability of a truncated write then abort")
		fBitFlip   = flag.Float64("fault-bitflip", 0, "per-write probability of flipping one bit in flight")
		fSlowloris = flag.Float64("fault-slowloris", 0, "per-write probability of slowloris-paced dribble")
		fDupHello  = flag.Float64("fault-dup", 0, "per-dial probability of a duplicate ghost reconnect")
	)
	flag.Parse()

	cfg := netgw.LoadgenConfig{
		Addr:        *addr,
		Streams:     *streams,
		Records:     *records,
		DurationS:   *durationS,
		Seed:        *seed,
		CSRatio:     *csRatio,
		SolverIters: *solverIters,
		SolverTol:   *solverTol,
		WarmStart:   *warm,
		RunFor:      *runFor,
		Verify:      *verify,
		Trace:       *traced,
		Client: netgw.ClientConfig{
			InFlight:    *inFlight,
			Timeout:     *timeout,
			MaxAttempts: *attempts,
			Faults: netgw.FaultConfig{
				PReset:     *fReset,
				PTruncate:  *fTruncate,
				PBitFlip:   *fBitFlip,
				PSlowloris: *fSlowloris,
				PDupHello:  *fDupHello,
			},
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "wbsn-loadgen: "+format+"\n", args...)
		},
	}
	start := time.Now()
	res, err := netgw.RunLoadgen(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbsn-loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wbsn-loadgen: %s (elapsed %s)\n", res, time.Since(start).Round(time.Millisecond))
	if res.Failures > 0 || res.Mismatches > 0 {
		fmt.Fprintf(os.Stderr, "wbsn-loadgen: FAILED: %d stream failures, %d digest mismatches\n",
			res.Failures, res.Mismatches)
		os.Exit(1)
	}
	if *verify {
		fmt.Printf("wbsn-loadgen: all %d records bit-identical to in-process reconstruction\n", res.RecordsDone)
	}
}
