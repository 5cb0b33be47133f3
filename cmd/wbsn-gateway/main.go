// Command wbsn-gateway runs the networked reconstruction gateway: a TCP
// server that ingests link-encoded CS windows from wearable streams,
// decodes them through the shared gateway engine (one session actor per
// stream, bounded backpressure, panic isolation), and answers each
// completed record with its reconstruction digest.
//
// The server and its clients must share the sensing-matrix seed and the
// solver settings — the same contract a deployed firmware image has
// with its base station. wbsn-loadgen derives its configuration from
// the same flags, so a matched pair is:
//
//	wbsn-gateway -addr :9700 -seed 42 &
//	wbsn-loadgen -addr 127.0.0.1:9700 -seed 42 -streams 100 -verify
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes, every
// frame already accepted into a session inbox is flushed through the
// decode engine, then the process exits. -drain-timeout bounds the
// wait.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wbsn/internal/netgw"
	"wbsn/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9700", "TCP listen address")
		seed         = flag.Int64("seed", 42, "sensing-matrix seed (must match the clients)")
		csRatio      = flag.Float64("cs-ratio", 60, "compressed-sensing ratio in percent")
		solverIters  = flag.Int("solver-iters", 0, "FISTA iteration budget (0 keeps the library default)")
		solverTol    = flag.Float64("solver-tol", 0, "FISTA convergence tolerance (>0 enables early exit)")
		warm         = flag.Bool("warm", false, "warm-start the per-stream solver across windows")
		workers      = flag.Int("workers", 0, "decode engine workers (0 = GOMAXPROCS)")
		batch        = flag.Int("batch", 0, "windows per engine dispatch: >1 batches queued windows through one structure-of-arrays solver pass (0/1 = sequential)")
		batchWait    = flag.Duration("batch-wait", 0, "how long a worker holding a partial batch waits for more windows (0 = dispatch greedily)")
		inbox        = flag.Int("inbox", 0, "per-session inbox depth (0 = default 32)")
		ackEvery     = flag.Int("ack-every", 0, "cumulative-ack cadence in windows (0 = default 4)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "per-frame read deadline (0 = default 30s)")
		sessionTTL   = flag.Duration("session-ttl", 0, "detached-session retention (0 = default 2m)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM")
		telAddr      = flag.String("telemetry", "", "serve live metrics and the control plane on this address (/metrics, /sessions, /traces, /healthz, /buildinfo, /debug/pprof)")
	)
	flag.Parse()

	fmt.Fprintf(os.Stderr, "wbsn-gateway: %s\n", telemetry.ReadBuild())

	_, gcfg, err := netgw.GatewayConfigFor(*seed, *csRatio, *solverIters, *solverTol, *warm)
	if err != nil {
		fatalf("configuration: %v", err)
	}
	cfg := netgw.ServerConfig{
		Addr:            *addr,
		Gateway:         gcfg,
		EngineWorkers:   *workers,
		EngineBatch:     *batch,
		EngineBatchWait: *batchWait,
		InboxDepth:      *inbox,
		AckEvery:        *ackEvery,
		IdleTimeout:     *idleTimeout,
		SessionTTL:      *sessionTTL,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "wbsn-gateway: "+format+"\n", args...)
		},
	}
	var (
		reg *telemetry.Registry
		set *telemetry.Set
	)
	if *telAddr != "" {
		reg = telemetry.NewRegistry()
		set = telemetry.NewSet(reg)
		cfg.Telemetry = set
	}

	srv, err := netgw.Serve(cfg)
	if err != nil {
		fatalf("serve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wbsn-gateway: listening on %s (seed %d, cs-ratio %.0f%%, warm %v)\n",
		srv.Addr(), *seed, *csRatio, *warm)

	if *telAddr != "" {
		// The gateway server doubles as the control plane behind
		// /sessions and /sessions/{id}/evict.
		tsrv, err := telemetry.ServeOpts(*telAddr, reg, telemetry.HTTPOptions{
			Control: srv,
			Trace:   set.Trace,
		})
		if err != nil {
			fatalf("telemetry: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wbsn-gateway: telemetry on http://%s/metrics (control plane: /sessions, /traces, /healthz)\n", tsrv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			tsrv.Shutdown(ctx) //nolint:errcheck — teardown is bounded either way
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "wbsn-gateway: %v — draining (bound %s)\n", got, *drainTimeout)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "wbsn-gateway: drain incomplete after %s: %v\n", time.Since(start).Round(time.Millisecond), err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wbsn-gateway: drained in %s\n", time.Since(start).Round(time.Millisecond))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wbsn-gateway: "+format+"\n", args...)
	os.Exit(1)
}
