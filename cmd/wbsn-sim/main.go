// Command wbsn-sim reproduces Figure 7: it simulates the three embedded
// cardiac workloads (3L-MF filtering, 3L-MMD delineation, RP-CLASS
// classification) on the synchronized multi-core platform of ref [18]
// and on an equivalent single-core device, and prints the per-component
// average-power decomposition plus the multi-core reduction.
//
// Usage:
//
//	wbsn-sim             # Figure 7 table (exits 1 if its shape check fails)
//	wbsn-sim -faulty     # sweep the lossy-link scenario instead
//	wbsn-sim -throughput # sweep the gateway engine across worker counts
//	wbsn-sim -fleet      # run the benchmark's fleet workloads over worker slots
//	wbsn-sim -soak       # long-horizon hierarchical-cluster endurance run
//
// Any run may add -telemetry addr to serve live metrics (/metrics,
// /debug/vars, /debug/pprof) plus a periodic stderr summary; the fleet
// sweep feeds the full per-stage pipeline instrumentation.
package main

import (
	"flag"
	"fmt"
	"os"

	"wbsn/internal/paper"
	"wbsn/internal/telemetry"
)

func main() {
	var (
		faulty     = flag.Bool("faulty", false, "sweep the node->gateway chain across channel loss rates")
		throughput = flag.Bool("throughput", false, "sweep the gateway reconstruction engine across worker counts")
		fleetSweep = flag.Bool("fleet", false, "run one round of the benchmark's two fleet workloads over the cohort at each worker-slot count")
		seed       = flag.Int64("seed", 1, "seed of the -faulty, -throughput, -fleet and -soak runs")
		solverTol  = flag.Float64("solver-tol", 0, "FISTA convergence tolerance: >0 enables early exit and adaptive restart in the throughput sweep and the soak, and warm-started reconstruction in the soak (0 keeps the fixed-budget solver)")
		engBatch   = flag.Int("engine-batch", 0, "windows per gateway-engine dispatch in the throughput sweep: >1 batches queued windows through one structure-of-arrays solver pass (0/1 = sequential)")
		telAddr    = flag.String("telemetry", "", "serve live metrics on this address (/metrics JSON, /debug/vars, /debug/pprof)")
		telLinger  = flag.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after the run (for external scrapers)")

		soak = flag.Bool("soak", false, "run the long-horizon hierarchical-fleet soak (leak, saturation, drift and budget watcher)")
		o    soakOpts
	)
	flag.IntVar(&o.patients, "soak-patients", 10000, "soak population size")
	flag.IntVar(&o.rounds, "soak-rounds", 5, "soak scheduling rounds (each simulates soak-session-s per patient)")
	flag.IntVar(&o.groups, "soak-groups", 4, "cluster shard-groups")
	flag.IntVar(&o.groupShards, "soak-group-shards", 0, "worker shards per group (0 = GOMAXPROCS)")
	flag.Float64Var(&o.sessionS, "soak-session-s", 2, "simulated seconds per patient per round")
	flag.IntVar(&o.budget, "soak-budget", 8192, "enforced bytes/patient cap (0 disables)")
	flag.BoolVar(&o.carryWarm, "soak-carry-warm", true, "carry warm-start solver coefficients across rounds (compact float32 tier)")
	flag.BoolVar(&o.checkpoint, "soak-checkpoint", true, "checkpoint mid-run, restore into a fresh cluster and verify digest identity")
	flag.StringVar(&o.ckptFile, "soak-checkpoint-file", "", "also persist the mid-run checkpoint to this path")
	flag.IntVar(&o.verifyEvery, "soak-verify-every", 1, "replay-verify one patient's digest every N rounds (0 disables)")
	flag.Float64Var(&o.heapGrowthMB, "soak-heap-growth-mb", 64, "max allowed heap growth between round 0 and the final round")
	flag.IntVar(&o.solverIters, "soak-iters", 0, "FISTA iteration cap for the soak (0 = gateway default; CI uses a reduced budget)")
	flag.Parse()
	var tel *telemetry.Set
	if *telAddr != "" {
		set, _, stop, err := startTelemetry(*telAddr, *telLinger)
		if err != nil {
			fatalf("telemetry: %v", err)
		}
		defer stop()
		tel = set
	}
	if *soak {
		o.solverTol = *solverTol
		o.seed = *seed
		if err := runSoak(o, tel); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *fleetSweep {
		if err := runFleetSweep(*seed, tel); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *faulty {
		if err := runFaultySweep(*seed); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *throughput {
		if err := runThroughputSweep(*seed, *solverTol, *engBatch); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if err := paper.Print(paper.Figure7()); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wbsn-sim: "+format+"\n", args...)
	os.Exit(1)
}
