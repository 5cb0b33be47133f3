package fleet

import (
	"bytes"
	"errors"
	"hash/fnv"
	"testing"
	"unsafe"

	"wbsn/internal/core"
	"wbsn/internal/ecg"
	"wbsn/internal/link"
)

// TestFNVMatchesStdlib pins the resumable digest to hash/fnv's New64a:
// the flat engine hashed with the stdlib for nine PRs, so every stored
// digest depends on byte-for-byte equivalence.
func TestFNVMatchesStdlib(t *testing.T) {
	chunks := [][]byte{
		nil,
		{0x00},
		{0xff, 0x01, 0x80},
		[]byte("wearable cardiac monitoring"),
		bytes.Repeat([]byte{0xa5, 0x5a}, 257),
	}
	std := fnv.New64a()
	ours := newFNV64a(fnvOffset64)
	for _, c := range chunks {
		std.Write(c)
		ours.Write(c)
		if std.Sum64() != ours.Sum64() {
			t.Fatalf("after %d bytes: stdlib %016x, ours %016x", len(c), std.Sum64(), ours.Sum64())
		}
	}
	// Resumability: continuing from a stored Sum64 state equals one
	// uninterrupted hash.
	resumed := newFNV64a(ours.Sum64())
	tail := []byte("resumed after checkpoint")
	std.Write(tail)
	resumed.Write(tail)
	if std.Sum64() != resumed.Sum64() {
		t.Fatalf("resumed hash diverged: stdlib %016x, ours %016x", std.Sum64(), resumed.Sum64())
	}
	if got := len(ours.Sum(nil)); got != 8 {
		t.Fatalf("Sum length %d", got)
	}
}

// TestPatientStateSize pins the cold tier to its budgeted 64 bytes —
// residency math all over the cluster depends on it.
func TestPatientStateSize(t *testing.T) {
	if got := unsafe.Sizeof(PatientState{}); got != patientStateBytes {
		t.Fatalf("PatientState is %d bytes, budget says %d", got, patientStateBytes)
	}
}

// TestSessionSeedDerivation pins the seed schedule: round 0 must be
// Seed+p (every pinned round-0 digest depends on it, see
// TestClusterDigestGolden), later rounds must differ per round and stay
// deterministic.
func TestSessionSeedDerivation(t *testing.T) {
	if got := sessionSeed(100, 7, 0); got != 107 {
		t.Fatalf("round 0 seed %d, want 107", got)
	}
	seen := map[int64]int{}
	for round := 0; round < 16; round++ {
		seen[sessionSeed(100, 7, round)]++
	}
	if len(seen) != 16 {
		t.Fatalf("16 rounds produced %d distinct seeds", len(seen))
	}
	if sessionSeed(100, 7, 3) != sessionSeed(100, 7, 3) {
		t.Fatal("seed derivation not deterministic")
	}
}

func clusterCfg(patients int) ClusterConfig {
	return ClusterConfig{
		Fleet: Config{
			Patients:    patients,
			Seed:        100,
			SolverIters: 20,
			SolverTol:   1e-3,
			WarmStart:   true,
		},
		SessionS: 4,
	}
}

// runCluster runs cfg's rounds on a fresh cluster, closed when the test
// ends.
func runCluster(t testing.TB, cfg ClusterConfig) (*Cluster, *ClusterReport) {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	rep, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cl, rep
}

// TestClusterDigestGolden pins absolute digests as literals, so a
// change to any layer a session crosses shows here as a moved value.
// The literals were captured when the flat fleet engine still existed
// and agreed with it bit for bit; the lossy cohort's values move by
// design when the link's wire format or loss draws change, the
// delineation cohort's when the beats the node's stream emits change.
func TestClusterDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	t.Run("cs-lossy-warm", func(t *testing.T) {
		cfg := ClusterConfig{
			Fleet: Config{
				Patients:    4,
				Seed:        100,
				SolverIters: 20,
				SolverTol:   1e-3,
				WarmStart:   true,
				Channel:     link.ChannelConfig{PGoodToBad: 0.2, PBadToGood: 0.2, LossGood: 0.1, LossBad: 0.9},
				ARQ:         link.ARQConfig{MaxRetries: 1},
			},
			Groups:      2,
			GroupShards: 2,
			Rounds:      3,
			SessionS:    8,
			CarryWarm:   true,
		}
		round0 := []uint64{0x84f4fbe872909b70, 0x71ead37799f93a99, 0x8db0e4819e73678c, 0x2f6138c7cadc6a48}
		const fold3 = 0x6a06aed75f72f200

		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.RunRound(); err != nil {
			t.Fatal(err)
		}
		lost := uint32(0)
		for p, want := range round0 {
			st := cl.State(p)
			lost += st.Lost
			if st.Digest != want {
				t.Errorf("round 0 patient %d: digest %#016x, want %#016x", p, st.Digest, want)
			}
		}
		if lost == 0 {
			t.Error("round 0 lost no window: the cohort no longer covers the lossy path")
		}
		rep, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rounds != 3 || rep.DigestFold != fold3 {
			t.Errorf("after %d rounds: fold %#016x, want %#016x after 3", rep.Rounds, rep.DigestFold, uint64(fold3))
		}
	})
	t.Run("delineation-gated", func(t *testing.T) {
		cfg := ClusterConfig{
			Fleet: Config{
				Patients: 4,
				Seed:     7,
				Node:     core.Config{Mode: core.ModeDelineation, GateLeads: true},
				Noise:    ecg.AmbulatoryNoise(),
			},
			Groups:      2,
			GroupShards: 2,
			SessionS:    10,
		}
		want := []uint64{0xad2c7a0f4efe15f6, 0xb25e3986823bae7a, 0x719e884e460fe2f2, 0x149304b6490a3899}
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		for p, w := range want {
			if got := cl.State(p).Digest; got != w {
				t.Errorf("patient %d: digest %#016x, want %#016x", p, got, w)
			}
		}
	})
}

// TestClusterFailedRoundIsSticky: when one worker's session fails, the
// other workers still advance their patients, so the population is left
// between rounds. The cluster must refuse to build on that state: later
// rounds, Run and WriteCheckpoint all return the first error, and no
// checkpoint file is written.
func TestClusterFailedRoundIsSticky(t *testing.T) {
	broken := link.ChannelConfig{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 2}
	cfg := clusterCfg(4)
	cfg.GroupShards = 2
	cfg.Fleet.Scenario = func(p int) Scenario {
		if p == 3 {
			return Scenario{Channel: &broken}
		}
		return Scenario{}
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, first := cl.RunRound()
	if !errors.Is(first, link.ErrChannel) {
		t.Fatalf("round with a broken channel: err %v, want link.ErrChannel", first)
	}
	if cl.RoundsDone() != 0 {
		t.Fatalf("failed round counted: RoundsDone %d", cl.RoundsDone())
	}
	failed := append([]PatientState(nil), cl.states...)
	if _, err := cl.RunRound(); !errors.Is(err, first) {
		t.Errorf("second RunRound: err %v, want the first round's %v", err, first)
	}
	if _, err := cl.Run(); !errors.Is(err, first) {
		t.Errorf("Run: err %v, want the first round's %v", err, first)
	}
	for p := range failed {
		if got := cl.State(p); got != failed[p] {
			t.Errorf("patient %d advanced after the failed round: %d rounds, was %d", p, got.Rounds, failed[p].Rounds)
		}
	}
	var ckpt bytes.Buffer
	if err := cl.WriteCheckpoint(&ckpt); !errors.Is(err, first) {
		t.Errorf("WriteCheckpoint: err %v, want the first round's %v", err, first)
	}
	if ckpt.Len() != 0 {
		t.Errorf("WriteCheckpoint wrote %d bytes of a half-advanced population", ckpt.Len())
	}
}

// TestClusterTopologyInvariance extends bit-identity to multi-round
// runs with the warm tier carried: the full cold state (digest and
// every counter) must not depend on the group/shard topology.
func TestClusterTopologyInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	const patients = 5
	base := clusterCfg(patients)
	base.Rounds = 3
	base.SessionS = 2
	base.CarryWarm = true
	ref, refRep := runCluster(t, base)
	for _, topo := range [][2]int{{1, 2}, {2, 1}, {2, 2}, {5, 1}} {
		cfg := base
		cfg.Groups, cfg.GroupShards = topo[0], topo[1]
		cl, rep := runCluster(t, cfg)
		for p := 0; p < patients; p++ {
			if got, want := cl.State(p), ref.State(p); got != want {
				t.Errorf("topology %dx%d patient %d: state diverged:\n got %+v\nwant %+v",
					topo[0], topo[1], p, got, want)
			}
		}
		if rep.DigestFold != refRep.DigestFold {
			t.Errorf("topology %dx%d: digest fold %016x, want %016x",
				topo[0], topo[1], rep.DigestFold, refRep.DigestFold)
		}
	}
}

// TestClusterCheckpointIdentity is acceptance criterion three: stop a
// soak after two rounds, checkpoint, restore into a fresh cluster (a
// different topology, even), finish the remaining round — and land on
// exactly the digests of the uninterrupted run.
func TestClusterCheckpointIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	const patients = 4
	base := clusterCfg(patients)
	base.Rounds = 3
	base.SessionS = 2
	base.CarryWarm = true

	straight, _ := runCluster(t, base)

	interrupted, err := NewCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if _, err := interrupted.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := interrupted.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	interrupted.Close()

	resumedCfg := base
	resumedCfg.Groups, resumedCfg.GroupShards = 2, 2 // restore across a topology change
	resumed, err := NewCluster(resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.ReadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := resumed.RoundsDone(); got != 2 {
		t.Fatalf("restored RoundsDone %d, want 2", got)
	}
	rep, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 3 {
		t.Fatalf("resumed run finished %d rounds, want 3", rep.Rounds)
	}
	for p := 0; p < patients; p++ {
		if got, want := resumed.State(p), straight.State(p); got != want {
			t.Errorf("patient %d: resumed state diverged:\n got %+v\nwant %+v", p, got, want)
		}
	}

	// Corruption must be caught by the FNV footer, not resumed.
	bad := append([]byte(nil), ckpt.Bytes()...)
	bad[len(bad)/2] ^= 0x40
	fresh, err := NewCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.ReadCheckpoint(bytes.NewReader(bad)); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("corrupted checkpoint: err %v, want ErrCheckpoint", err)
	}

	// A mismatched cluster (different seed) must refuse the file.
	other := base
	other.Fleet.Seed = 999
	wrong, err := NewCluster(other)
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if err := wrong.ReadCheckpoint(bytes.NewReader(ckpt.Bytes())); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("seed-mismatched checkpoint: err %v, want ErrCheckpoint", err)
	}
}

// TestClusterBudget pins the enforcement: a budget below the planned
// cold+warm residency fails fast with ErrBudget, one at the plan
// passes, and MemStats reports the arithmetic.
func TestClusterBudget(t *testing.T) {
	cfg := clusterCfg(16)
	cfg.CarryWarm = true
	cfg.BudgetBytesPerPatient = patientStateBytes // no room for the warm tier
	if _, err := NewCluster(cfg); !errors.Is(err, ErrBudget) {
		t.Fatalf("under-budget cluster: err %v, want ErrBudget", err)
	}

	cfg.BudgetBytesPerPatient = 1 << 14
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := cl.Mem()
	if m.ColdBytesPerPatient != patientStateBytes {
		t.Errorf("cold bytes %d, want %d", m.ColdBytesPerPatient, patientStateBytes)
	}
	if m.WarmBytesPerPatient == 0 {
		t.Error("warm tier enabled but WarmBytesPerPatient is 0")
	}
	if m.PlannedBytesPerPatient != m.ColdBytesPerPatient+m.WarmBytesPerPatient {
		t.Errorf("planned %d != cold %d + warm %d",
			m.PlannedBytesPerPatient, m.ColdBytesPerPatient, m.WarmBytesPerPatient)
	}
	if m.PlannedBytesPerPatient > cfg.BudgetBytesPerPatient {
		t.Errorf("planned %d exceeds budget %d", m.PlannedBytesPerPatient, cfg.BudgetBytesPerPatient)
	}
	if m.HeapInuseBytes == 0 || m.Goroutines == 0 {
		t.Error("Mem() did not sample the runtime")
	}

	// CarryWarm without a warm-started fleet is a configuration error,
	// not silent dead weight.
	bad := clusterCfg(4)
	bad.Fleet.WarmStart = false
	bad.CarryWarm = true
	if _, err := NewCluster(bad); !errors.Is(err, ErrFleet) {
		t.Fatalf("CarryWarm without WarmStart: err %v, want ErrFleet", err)
	}
}

// TestClusterVerifyPatient exercises the drift detector both ways: a
// healthy cluster verifies clean, and a corrupted cold-tier digest is
// reported as ErrDrift.
func TestClusterVerifyPatient(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	cfg := clusterCfg(3)
	cfg.Rounds = 2
	cfg.SessionS = 2
	cfg.CarryWarm = true
	cl, _ := runCluster(t, cfg)
	for p := 0; p < 3; p++ {
		if err := cl.VerifyPatient(p); err != nil {
			t.Fatalf("healthy patient %d reported drift: %v", p, err)
		}
	}
	cl.states[1].Digest ^= 1
	if err := cl.VerifyPatient(1); !errors.Is(err, ErrDrift) {
		t.Fatalf("corrupted digest: err %v, want ErrDrift", err)
	}
	if err := cl.VerifyPatient(99); !errors.Is(err, ErrFleet) {
		t.Fatalf("out-of-range patient: err %v, want ErrFleet", err)
	}
}

// TestFleetRigReuseHygiene pins rig-pooling hygiene directly: two
// patients with adversarially different scenarios — different rhythm
// class, noise mix, channel statistics and ARQ policy — run back to
// back through ONE pooled rig, and each digest must equal the digest of
// a fleet where that patient runs alone on a fresh rig. Any state
// leaking across the rig Reset (warm coefficients, reassembler windows,
// stream state) breaks the equality.
func TestFleetRigReuseHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	noisy := ecg.NoiseConfig{BaselineWander: 0.3, EMG: 0.12, Powerline: 0.08, MotionRate: 4, MotionAmp: 0.5}
	af := ecg.RhythmConfig{Kind: ecg.RhythmAF, MeanHR: 110}
	lossy := link.ChannelConfig{PGoodToBad: 0.3, PBadToGood: 0.2, LossBad: 0.7, LossGood: 0.05, PDuplicate: 0.05, PReorder: 0.05}
	tinyARQ := link.ARQConfig{MaxRetries: 1}
	scenario := func(p int) Scenario {
		if p%2 == 1 {
			return Scenario{Rhythm: &af, Noise: &noisy, Channel: &lossy, ARQ: &tinyARQ}
		}
		return Scenario{}
	}

	shared := fastCfg(2, 1) // one worker slot: both patients share one rig
	shared.Fleet.WarmStart = true
	shared.Fleet.SolverTol = 1e-3
	shared.Fleet.Scenario = scenario
	res, _ := runCluster(t, shared)

	// Each patient alone: a fresh cluster, a fresh rig, same scenario
	// mapping (patient index preserved via the hook).
	for p := 0; p < 2; p++ {
		p := p
		solo := fastCfg(1, 1)
		solo.Fleet.WarmStart = true
		solo.Fleet.SolverTol = 1e-3
		solo.Fleet.Seed = shared.Fleet.Seed + int64(p)
		// Same firmware image: the sensing-matrix seed is fleet-wide and
		// must not shift with the base seed.
		solo.Fleet.Node = core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: shared.Fleet.Seed}
		solo.Fleet.Scenario = func(int) Scenario { return scenario(p) }
		soloRes, _ := runCluster(t, solo)
		if got, want := res.State(p).Digest, soloRes.State(0).Digest; got != want {
			t.Errorf("patient %d: pooled-rig digest %016x, fresh-rig %016x — rig state leaked",
				p, got, want)
		}
	}
	if res.State(0).Digest == res.State(1).Digest {
		t.Error("adversarial scenarios produced identical digests — scenario hook inert")
	}
}
