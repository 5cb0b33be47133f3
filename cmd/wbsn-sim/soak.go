package main

// The -soak mode is the long-horizon endurance harness behind the
// ROADMAP's "million-patient soak": a hierarchical fleet.Cluster runs a
// large population for many scheduling rounds while a watcher reads the
// telemetry registry — the same snapshot /metrics serves — and fails
// loudly on any of the leak signals ROADMAP names: heap growth across
// rounds, saturated histograms, digest drift (a from-scratch replay of
// one patient disagreeing with the live cold tier), and the per-patient
// memory budget. Mid-run it exercises the checkpoint/restore path and
// proves the resumed population lands on the same digest fold as the
// run that never stopped.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"wbsn/internal/cohort"
	"wbsn/internal/fleet"
	"wbsn/internal/telemetry"
)

type soakOpts struct {
	patients     int
	rounds       int
	groups       int
	groupShards  int
	sessionS     float64
	budget       int
	carryWarm    bool
	checkpoint   bool
	ckptFile     string
	verifyEvery  int
	heapGrowthMB float64
	solverTol    float64
	solverIters  int
	seed         int64
}

func (o soakOpts) clusterConfig(tel *telemetry.Set) fleet.ClusterConfig {
	return fleet.ClusterConfig{
		Fleet: fleet.Config{
			Patients:    o.patients,
			Seed:        o.seed,
			SolverTol:   o.solverTol,
			SolverIters: o.solverIters,
			WarmStart:   o.carryWarm || o.solverTol > 0,
			Channel:     cohort.BaselineChannel(),
			Telemetry:   tel,
		},
		Groups:                o.groups,
		GroupShards:           o.groupShards,
		Rounds:                o.rounds,
		SessionS:              o.sessionS,
		CarryWarm:             o.carryWarm,
		BudgetBytesPerPatient: o.budget,
	}
}

// rssMB reads the process resident set from /proc (0 when unavailable
// — RSS is reported for the operator; the enforced signal is the heap
// gauge, which is portable and GC-stable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func runSoak(o soakOpts, tel *telemetry.Set) error {
	if tel == nil {
		// Headless soak: the watcher still goes through a real registry
		// snapshot, exactly what -telemetry would serve.
		tel = telemetry.NewSet(telemetry.NewRegistry())
	}
	reg := tel.Registry

	// heapInuse reads the runtime gauge through a registry snapshot
	// (collectors refresh it there), after a GC so slack pages don't
	// masquerade as growth.
	heapInuse := func() uint64 {
		runtime.GC()
		return uint64(reg.Snapshot().Gauges["runtime.heap_inuse_bytes"].Value)
	}
	heapBase := heapInuse()

	cfg := o.clusterConfig(tel)
	cl, err := fleet.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	eff := cl.Config()
	mem := cl.Mem()
	fmt.Printf("== Soak: %d patients × %d rounds × %.1f s (%d groups × %d shards, carry-warm=%v, budget %d B/patient) ==\n",
		o.patients, eff.Rounds, eff.SessionS, eff.Groups, eff.GroupShards, o.carryWarm, o.budget)
	fmt.Printf("plan: cold %d B + warm %d B = %d B/patient, %d pooled rigs\n",
		mem.ColdBytesPerPatient, mem.WarmBytesPerPatient, mem.PlannedBytesPerPatient, mem.Rigs)

	var failures []string
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failures = append(failures, msg)
		fmt.Printf("soak FAIL signal: %s\n", msg)
	}

	var ckpt bytes.Buffer
	ckptAtRound := -1
	var heapAfterFirst uint64
	fmt.Printf("%-6s %9s %9s %18s %9s %8s %5s\n",
		"round", "wall(s)", "RTF", "digest fold", "heap(MB)", "rss(MB)", "gor")
	for r := 0; r < eff.Rounds; r++ {
		rr, err := cl.RunRound()
		if err != nil {
			return err
		}

		// Watcher pass: one registry snapshot per round, the same bytes
		// /metrics would serve.
		snap := reg.Snapshot()
		heapMB := float64(snap.Gauges["runtime.heap_inuse_bytes"].Value) / (1 << 20)
		gor := snap.Gauges["runtime.goroutines"].Value
		for name, h := range snap.Histograms {
			if h.Saturated > 0 {
				fail("round %d: histogram %s saturated (%d observations in the overflow bucket)",
					r, name, h.Saturated)
			}
		}
		fmt.Printf("%-6d %9.2f %8.0fx %018x %9.1f %8.1f %5d\n",
			r, rr.WallSeconds, rr.RealTimeFactor, rr.DigestFold, heapMB, rssMB(), gor)

		if o.verifyEvery > 0 && (r+1)%o.verifyEvery == 0 {
			p := (r * 7919) % o.patients // rotating prime stride covers the population
			if err := cl.VerifyPatient(p); err != nil {
				fail("round %d: %v", r, err)
			} else {
				fmt.Printf("       drift check: patient %d replayed %d round(s), digest matches\n", p, r+1)
			}
		}
		if o.checkpoint && ckptAtRound < 0 && r == (eff.Rounds-1)/2 && r < eff.Rounds-1 {
			if err := cl.WriteCheckpoint(&ckpt); err != nil {
				return err
			}
			ckptAtRound = cl.RoundsDone()
			fmt.Printf("       checkpoint: %.1f MB after round %d (FNV-sealed)\n",
				float64(ckpt.Len())/(1<<20), r)
			if o.ckptFile != "" {
				if err := os.WriteFile(o.ckptFile, ckpt.Bytes(), 0o644); err != nil {
					return err
				}
			}
		}
		if r == 0 {
			heapAfterFirst = heapInuse()
		}
	}
	final := cl.Report()

	// Checkpoint/restore signal first: resume the mid-run file in a
	// fresh cluster, replay the remaining rounds, and demand the same
	// fold. Runs before the memory signals so its transient population
	// (a second cluster plus the serialized file) can be released and
	// not distort the residency sample.
	if ckptAtRound >= 0 {
		restored, err := fleet.NewCluster(cfg)
		if err != nil {
			return err
		}
		rerr := restored.ReadCheckpoint(bytes.NewReader(ckpt.Bytes()))
		var rrep *fleet.ClusterReport
		if rerr == nil {
			rrep, rerr = restored.Run()
		}
		restored.Close()
		if rerr != nil {
			return rerr
		}
		if rrep.DigestFold != final.DigestFold {
			fail("restore divergence: resumed fold %016x, live fold %016x", rrep.DigestFold, final.DigestFold)
		} else {
			fmt.Printf("restore: resumed at round %d, replayed %d round(s), digest fold matches live run\n",
				ckptAtRound, eff.Rounds-ckptAtRound)
		}
		ckpt = bytes.Buffer{} // release the in-memory copy before sampling
	}

	// Degenerate-run signal: a soak whose pipeline never emitted a
	// single event exercised nothing — the classic cause is a session
	// shorter than one CS window, which silently produces zero packets
	// and a meaninglessly fast "PASS".
	if final.Events == 0 {
		fail("no pipeline events across %d patients × %d rounds (session %.1f s too short for a CS window?)",
			o.patients, eff.Rounds, eff.SessionS)
	}

	// Leak signal: steady-state heap must not grow across rounds (the
	// first round is excluded — it fills the pooled rigs and solver
	// scratch, which is one-time warm-up, not a leak).
	heapEnd := heapInuse()
	if growth := (float64(heapEnd) - float64(heapAfterFirst)) / (1 << 20); growth > o.heapGrowthMB {
		fail("heap grew %.1f MB between round 0 and round %d (limit %.1f MB)",
			growth, eff.Rounds-1, o.heapGrowthMB)
	} else {
		fmt.Printf("heap: %+.1f MB across %d rounds (limit %.1f MB)\n",
			growth, eff.Rounds, o.heapGrowthMB)
	}

	// Budget signal: population residency, isolated from the process
	// baseline sampled before the cluster existed.
	if o.budget > 0 {
		perPatient := (float64(heapEnd) - float64(heapBase)) / float64(o.patients)
		if perPatient > float64(o.budget) {
			fail("observed %.0f B/patient exceeds budget %d", perPatient, o.budget)
		} else {
			fmt.Printf("observed: %.0f B/patient (budget %d, planned %d)\n",
				perPatient, o.budget, mem.PlannedBytesPerPatient)
		}
	}

	fmt.Printf("totals: %.0f simulated s in %.1f s wall (RTF %.0fx ≈ patients/core), %d events, delivery %.3f, Se %.3f, PPV %.3f\n",
		final.SimSeconds, final.WallSeconds, final.RealTimeFactor,
		final.Events, final.MeanDelivery, final.MeanSe, final.MeanPPV)
	if len(failures) > 0 {
		return fmt.Errorf("soak FAILED with %d signal(s): %s", len(failures), strings.Join(failures, "; "))
	}
	fmt.Println("soak PASS: no leaks, no saturation, no drift, budget held, restore bit-identical")
	return nil
}
