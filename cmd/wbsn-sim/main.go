// Command wbsn-sim reproduces Figure 7: it simulates the three embedded
// cardiac workloads (3L-MF filtering, 3L-MMD delineation, RP-CLASS
// classification) on the synchronized multi-core platform of ref [18]
// and on an equivalent single-core device, and prints the per-component
// average-power decomposition plus the multi-core reduction.
//
// Usage:
//
//	wbsn-sim             # Figure 7 table
//	wbsn-sim -ablation   # additionally ablate the broadcast interconnect
//	wbsn-sim -faulty     # sweep the lossy-link scenario instead
//	wbsn-sim -throughput # sweep the gateway engine across worker counts
//	wbsn-sim -fleet      # sweep one-round fleet clusters over worker slots
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

	"wbsn/internal/telemetry"
	"wbsn/internal/wbsn"
)

func main() {
	var (
		ablation   = flag.Bool("ablation", false, "also run with the broadcast interconnect disabled")
		faulty     = flag.Bool("faulty", false, "sweep the node->gateway chain across channel loss rates")
		throughput = flag.Bool("throughput", false, "sweep the gateway reconstruction engine across worker counts")
		fleetSweep = flag.Bool("fleet", false, "sweep one-round fleet clusters across patients x worker slots")
		seed       = flag.Int64("seed", 1, "branch-outcome seed")
		solverTol  = flag.Float64("solver-tol", 0, "FISTA convergence tolerance: >0 enables early exit, adaptive restart and warm-started reconstruction in the fleet/throughput sweeps (0 keeps the fixed-budget solver)")
		engBatch   = flag.Int("engine-batch", 0, "windows per gateway-engine dispatch in the fleet/throughput sweeps: >1 batches queued windows through one structure-of-arrays solver pass (0/1 = sequential)")
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
		if err := runFleetSweep(*seed, tel, *solverTol, *engBatch); err != nil {
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
	em := wbsn.DefaultEnergy()
	results, err := wbsn.RunFigure7(em, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println("== Figure 7: average power, synchronized multi-core (MC) vs single-core (SC) ==")
	fmt.Printf("%-10s %-4s %9s %8s %8s %8s %8s %8s %9s %7s\n",
		"app", "cfg", "f(kHz)", "V", "core", "imem", "dmem", "intc+lk", "total(µW)", "merge")
	maxRed := 0.0
	for _, r := range results {
		p := func(tag string, b wbsn.PowerBreakdown, merge float64) {
			fmt.Printf("%-10s %-4s %9.0f %8.2f %8.3f %8.3f %8.3f %8.3f %9.3f %7.2f\n",
				r.App, tag, b.Freq/1e3, b.Voltage,
				b.CoreW*1e6, b.IMemW*1e6, b.DMemW*1e6, (b.IntcW+b.LeakW)*1e6,
				b.TotalW()*1e6, merge)
		}
		p("SC", r.SC, r.SCStats.MergeRatio())
		p("MC", r.MC, r.MCStats.MergeRatio())
		fmt.Printf("%-10s reduction: %.1f%%\n", r.App, 100*r.Reduction)
		if r.Reduction > maxRed {
			maxRed = r.Reduction
		}
	}
	fmt.Printf("\nmax reduction: %.1f%% (paper: up to 40%%)\n", 100*maxRed)

	// The Figure 3 compound mapping: the whole pipeline on 8 cores.
	comp, err := wbsn.RunCompound(em, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\n== Figure 3 compound mapping: full pipeline on 8 cores ==\n")
	fmt.Printf("SC %6.0f kHz @ %.2f V -> %6.3f µW | MC %6.0f kHz @ %.2f V -> %6.3f µW | reduction %.1f%% (merge %.2fx)\n",
		comp.SC.Freq/1e3, comp.SC.Voltage, comp.SC.TotalW()*1e6,
		comp.MC.Freq/1e3, comp.MC.Voltage, comp.MC.TotalW()*1e6,
		100*comp.Reduction, comp.MCStats.MergeRatio())

	if *ablation {
		fmt.Println("\n== Ablation: broadcast interconnect disabled on the MC platform ==")
		for _, app := range wbsn.Figure7Apps() {
			mcProg, _, err := app.Programs()
			if err != nil {
				fatalf("%v", err)
			}
			progs := make([]*wbsn.Program, app.Cores)
			for i := range progs {
				progs[i] = mcProg
			}
			run := func(broadcast bool) wbsn.Stats {
				m, err := wbsn.NewMachine(wbsn.MachineConfig{
					Cores: app.Cores, IMemBanks: 2, DMemBanks: app.Cores,
					Broadcast: broadcast, Seed: *seed,
				}, progs)
				if err != nil {
					fatalf("%v", err)
				}
				return m.Run(50e6)
			}
			on, off := run(true), run(false)
			fmt.Printf("%-10s broadcast on: %7d cycles, %7d imem accesses | off: %7d cycles, %7d accesses (%.2fx cycles)\n",
				app.Name, on.Cycles, on.FetchAccesses, off.Cycles, off.FetchAccesses,
				float64(off.Cycles)/float64(on.Cycles))
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wbsn-sim: "+format+"\n", args...)
	os.Exit(1)
}
