package fleet

import (
	"testing"

	"wbsn/internal/telemetry"
)

// warmCfg is fastCfg with the convergence-aware warm-started solver on.
func warmCfg(patients, shards int) ClusterConfig {
	cfg := fastCfg(patients, shards)
	cfg.Fleet.SolverTol = 1e-3
	cfg.Fleet.WarmStart = true
	return cfg
}

// TestFleetWarmShardInvariance extends the bit-identity guarantee to
// the warm-started solver: each patient's windows decode in order on
// whichever worker slot owns the patient, and the rig Reset drops the
// warm cache at every patient boundary, so digests must not depend on
// the slot count. A stale θ crossing patients inside a shared rig would
// shift every later solve on that slot and break this comparison.
func TestFleetWarmShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	serial, _ := runCluster(t, warmCfg(5, 1))
	cold, _ := runCluster(t, fastCfg(5, 1))
	warmChanged := false
	for p := 0; p < 5; p++ {
		if serial.State(p).Digest != cold.State(p).Digest {
			warmChanged = true
			break
		}
	}
	if !warmChanged {
		t.Fatal("warm+tol run matches the cold run bit for bit — the adaptive solver never engaged")
	}
	for _, shards := range []int{2, 5} {
		cl, _ := runCluster(t, warmCfg(5, shards))
		for p := 0; p < 5; p++ {
			if got, want := cl.State(p).Digest, serial.State(p).Digest; got != want {
				t.Errorf("shards=%d patient %d: warm digest %#x != serial %#x", shards, p, got, want)
			}
		}
	}
}

// TestFleetWarmRigReuse replays one warm population twice through one
// cluster: reused rigs must reproduce the first pass's states exactly,
// proving the Reset between patients (and between passes) clears the
// warm cache.
func TestFleetWarmRigReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	first, second := replayOnReusedRigs(t, warmCfg(4, 2))
	for p := range first {
		if first[p] != second[p] {
			t.Errorf("patient %d: warm rig reuse changed the state:\n got %+v\nwant %+v", p, second[p], first[p])
		}
	}
}

// TestFleetWarmTelemetry asserts the early-exit path actually fires
// under fleet load and that the iterations histogram is non-degenerate:
// solves observed, warm seeds used, and the median iteration count
// strictly below the configured budget.
func TestFleetWarmTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	set := telemetry.NewSet(telemetry.NewRegistry())
	cfg := warmCfg(3, 2)
	// Give the convergence test headroom: with the tight 30-iteration
	// test budget most passes exhaust the budget before the tolerance is
	// met, which would make this smoke vacuous.
	cfg.Fleet.SolverIters = 100
	cfg.Fleet.Telemetry = set
	runCluster(t, cfg)

	sm := set.Solver
	if sm.Solves.Value() == 0 {
		t.Fatal("no solves recorded")
	}
	if sm.WarmSolves.Value() == 0 {
		t.Error("no warm solves recorded across contiguous windows")
	}
	if sm.EarlyExits.Value() == 0 {
		t.Error("early exit never fired — the convergence criterion is dead under fleet load")
	}
	if sm.Iters.Snapshot().Count != sm.Solves.Value() {
		t.Errorf("iters histogram observations %d != solves %d", sm.Iters.Snapshot().Count, sm.Solves.Value())
	}
	snap := sm.Iters.Snapshot()
	budget := uint64(100 * 2) // SolverIters × (1 + default reweight pass)
	if snap.P50 >= budget {
		t.Errorf("median iterations %d did not beat the %d budget", snap.P50, budget)
	}
	if snap.Min == snap.Max {
		t.Errorf("iterations histogram degenerate: every solve took %d iterations", snap.Min)
	}
}
