package main

// The -fleet sweep runs the benchmark's two fleet workloads over the
// cohort (internal/cohort): one round of fleet-cs-lossy and one of
// fleet-delineation per worker-slot count (GroupShards, one group).
// For each workload the 1-slot cluster is the reference and every other
// slot count must reproduce each patient's full cold state — digest and
// every counter — bit for bit: the fleet's scheduling guarantee over
// the mixed-class cohort. Each table reports the real-time factor
// (simulated seconds per wall second), i.e. how many live patients
// this host could serve, plus the clinical and radio health of the
// population.

import (
	"fmt"
	"runtime"
	"strings"

	"wbsn/internal/cohort"
	"wbsn/internal/fleet"
	"wbsn/internal/telemetry"
)

func runFleetSweep(seed int64, tel *telemetry.Set) error {
	maxShards := runtime.GOMAXPROCS(0)
	// Exercise the multi-slot path (and its bit-identity) even on a
	// single-core host, where the speedup honestly reports ~1x.
	if maxShards < 4 {
		maxShards = 4
	}
	shardSet := []int{1}
	for s := 2; s <= maxShards; s *= 2 {
		shardSet = append(shardSet, s)
	}
	if last := shardSet[len(shardSet)-1]; last != maxShards {
		shardSet = append(shardSet, maxShards)
	}

	coh := cohort.New(seed)
	members := make([][]string, cohort.Classes)
	for p, k := range coh.Class {
		members[k] = append(members[k], fmt.Sprint(p))
	}
	fmt.Printf("== Fleet: one round of each benchmark workload per worker-slot count (GOMAXPROCS=%d, seed %d) ==\n",
		runtime.GOMAXPROCS(0), seed)
	fmt.Printf("cohort: %d patients\n", cohort.Patients)
	for k, ps := range members {
		fmt.Printf("  %-17s patients %s\n", cohort.Class(k), strings.Join(ps, " "))
	}

	for _, w := range []struct {
		name string
		cfg  fleet.ClusterConfig
	}{
		{"fleet-cs-lossy", fleet.CSLossyWorkload(seed)},
		{"fleet-delineation", fleet.DelineationWorkload(seed)},
	} {
		fmt.Printf("\n%s: %.0f s/patient\n", w.name, w.cfg.SessionS)
		fmt.Printf("%-7s %9s %8s %7s %7s %9s %10s %8s\n",
			"slots", "wall(ms)", "RTF", "Se", "PPV", "delivery", "radio(mJ)", "speedup")
		var ref []fleet.PatientState
		var refWall float64
		planDesc := ""
		for _, shards := range shardSet {
			cfg := w.cfg
			cfg.GroupShards = shards
			cfg.Fleet.Telemetry = tel
			rep, states, plan, err := runOneRound(cfg)
			if err != nil {
				return err
			}
			speedup := 1.0
			if ref == nil {
				ref, refWall, planDesc = states, rep.WallSeconds, plan
			} else {
				speedup = refWall / rep.WallSeconds
				for p, want := range ref {
					if got := states[p]; got != want {
						return fmt.Errorf("%s slots=%d: patient %d diverged from the 1-slot cluster:\n got %+v\nwant %+v",
							w.name, shards, p, got, want)
					}
				}
			}
			fmt.Printf("%-7d %9.1f %8.1f %7.3f %7.3f %9.3f %10.3f %7.2fx\n",
				shards, rep.WallSeconds*1e3, rep.RealTimeFactor,
				rep.MeanSe, rep.MeanPPV, rep.MeanDelivery, rep.RadioEnergyJ*1e3, speedup)
		}
		fmt.Printf("compiled node plan (every rig): %s\n", planDesc)
	}
	fmt.Println("\nall worker-slot counts produced bit-identical per-patient states")
	return nil
}

// runOneRound runs a one-round cluster and returns its report, every
// patient's cold state and the compiled node plan.
func runOneRound(cfg fleet.ClusterConfig) (*fleet.ClusterReport, []fleet.PatientState, string, error) {
	cl, err := fleet.NewCluster(cfg)
	if err != nil {
		return nil, nil, "", err
	}
	defer cl.Close()
	rep, err := cl.Run()
	if err != nil {
		return nil, nil, "", err
	}
	states := make([]fleet.PatientState, rep.Patients)
	for p := range states {
		states[p] = cl.State(p)
	}
	return rep, states, cl.PlanDescription(), nil
}
