package fleet

import (
	"wbsn/internal/cohort"
	"wbsn/internal/core"
)

// CSLossyWorkload is the fleet-cs-lossy workload over the cohort drawn
// with seed: the paper's CS node (CR 60, 3 leads) in 8 s sessions,
// decoded by the convergence-aware solver (Tol 1e-3) warm-started
// across each patient's windows and across rounds, 8 windows per
// engine dispatch. Groups, GroupShards and Rounds are left to the
// caller.
func CSLossyWorkload(seed int64) ClusterConfig {
	cfg := cohortWorkload(seed, core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: cohort.FirmwareSeed}, 8)
	cfg.Fleet.SolverTol = 1e-3
	cfg.Fleet.WarmStart = true
	cfg.Fleet.EngineBatch = 8
	cfg.CarryWarm = true
	return cfg
}

// DelineationWorkload is the fleet-delineation workload over the cohort
// drawn with seed: the on-node delineation node with lead gating, in
// 30 s sessions. Groups, GroupShards and Rounds are left to the caller.
func DelineationWorkload(seed int64) ClusterConfig {
	return cohortWorkload(seed, core.Config{Mode: core.ModeDelineation, GateLeads: true, Seed: cohort.FirmwareSeed}, 30)
}

// cohortWorkload runs node over the cohort of seed on the bursty
// baseline channel, in sessionS-second sessions.
func cohortWorkload(seed int64, node core.Config, sessionS float64) ClusterConfig {
	coh := cohort.New(seed)
	return ClusterConfig{
		Fleet: Config{
			Patients: cohort.Patients,
			Seed:     coh.Base,
			Node:     node,
			Channel:  cohort.BaselineChannel(),
			Scenario: coh.Scenario,
		},
		SessionS: sessionS,
	}
}
