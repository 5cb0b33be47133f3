package main

// The -fleet sweep scales the whole chain to a patient population: a
// one-round fleet.Cluster simulates every patient's node, lossy link
// and gateway reconstruction, sweeping patients x worker slots
// (GroupShards, one group). For each population size the 1x1 cluster
// is the reference and every other slot count must reproduce each
// patient's full cold state — digest and every counter — bit for bit:
// the fleet's scheduling guarantee. The table reports the real-time
// factor (simulated seconds per wall second), i.e. how many live
// patients this host could serve, plus the clinical and radio health of
// the population.

import (
	"fmt"
	"runtime"

	"wbsn/internal/fleet"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
)

func runFleetSweep(seed int64, tel *telemetry.Set, solverTol float64, engineBatch int) error {
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

	const sessionS = 8.0
	channel := link.ChannelConfig{
		PGoodToBad: 0.05,
		PBadToGood: 0.25,
		LossGood:   0.02,
		LossBad:    0.45,
	}
	solver := "fixed-budget solver"
	if solverTol > 0 {
		solver = fmt.Sprintf("warm-started solver, tol %g", solverTol)
	}
	fmt.Printf("== Fleet: one-round cluster per patients x worker slots (GOMAXPROCS=%d, %.0f s/patient, bursty channel, %s) ==\n",
		runtime.GOMAXPROCS(0), sessionS, solver)
	fmt.Printf("%-9s %-7s %9s %8s %7s %7s %9s %10s %8s\n",
		"patients", "slots", "wall(ms)", "RTF", "Se", "PPV", "delivery", "radio(mJ)", "speedup")

	planDesc := ""
	for _, patients := range []int{4, 8, 16} {
		var ref []fleet.PatientState
		var refWall float64
		for _, shards := range shardSet {
			if shards > patients {
				continue
			}
			rep, states, plan, err := runOneRound(fleet.ClusterConfig{
				Fleet: fleet.Config{
					Patients:    patients,
					Seed:        seed,
					Channel:     channel,
					SolverTol:   solverTol,
					WarmStart:   solverTol > 0,
					EngineBatch: engineBatch,
					Telemetry:   tel,
				},
				GroupShards: shards,
				SessionS:    sessionS,
			})
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
						return fmt.Errorf("patients=%d slots=%d: patient %d diverged from the 1x1 cluster:\n got %+v\nwant %+v",
							patients, shards, p, got, want)
					}
				}
			}
			fmt.Printf("%-9d %-7d %9.1f %8.1f %7.3f %7.3f %9.3f %10.3f %7.2fx\n",
				patients, shards, rep.WallSeconds*1e3, rep.RealTimeFactor,
				rep.MeanSe, rep.MeanPPV, rep.MeanDelivery, rep.RadioEnergyJ*1e3, speedup)
		}
		fmt.Println()
	}
	fmt.Printf("compiled node plan (every rig): %s\n", planDesc)
	fmt.Println("all worker-slot counts produced bit-identical per-patient states")
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
