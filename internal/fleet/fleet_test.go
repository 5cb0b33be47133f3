package fleet

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/ecg"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
)

// fastCfg keeps fleet tests quick: one short round on `shards` worker
// slots and a reduced FISTA budget (reconstruction quality is
// irrelevant to scheduling and determinism, which is what these tests
// pin down).
func fastCfg(patients, shards int) ClusterConfig {
	return ClusterConfig{
		Fleet: Config{
			Patients:    patients,
			Seed:        100,
			SolverIters: 30,
		},
		GroupShards: shards,
		SessionS:    6,
	}
}

// TestFleetBitIdentity is the engine's core guarantee: every patient's
// full state (digest over events + reconstructed signal + recovered
// fiducials, and every counter) is identical whatever the worker slot
// count, so parallel execution is indistinguishable from serial.
func TestFleetBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	base := fastCfg(5, 1)
	serial, _ := runCluster(t, base)
	for _, shards := range []int{2, 3, 5} {
		cfg := base
		cfg.GroupShards = shards
		cl, _ := runCluster(t, cfg)
		if got := cl.Config().GroupShards; got != shards {
			t.Fatalf("shards: got %d want %d", got, shards)
		}
		for p := 0; p < 5; p++ {
			if got, want := cl.State(p), serial.State(p); got != want {
				t.Errorf("shards=%d patient %d: state diverged from serial:\n got %+v\nwant %+v", shards, p, got, want)
			}
		}
	}
}

// replayOnReusedRigs runs round 0 of cfg's population twice through one
// cluster, rewinding to a round-0 checkpoint in between, and returns
// the states of both passes.
func replayOnReusedRigs(t *testing.T, cfg ClusterConfig) (first, second []PatientState) {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var ckpt bytes.Buffer
	if err := cl.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	passes := make([][]PatientState, 2)
	for i := range passes {
		if err := cl.ReadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.RunRound(); err != nil {
			t.Fatal(err)
		}
		passes[i] = append([]PatientState(nil), cl.states...)
	}
	return passes[0], passes[1]
}

// TestFleetPooledRigReuse replays the same population twice through one
// cluster: the second pass reuses warmed rigs via Reset and must
// reproduce the first pass's states exactly (no state bleed between
// passes or between the patients sharing a slot's rig).
func TestFleetPooledRigReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	first, second := replayOnReusedRigs(t, fastCfg(4, 2))
	for p := range first {
		if first[p] != second[p] {
			t.Errorf("patient %d: rig reuse changed the state:\n got %+v\nwant %+v", p, second[p], first[p])
		}
	}
}

// TestFleetPatientsIndependent checks the seeding discipline: distinct
// patients produce distinct records and digests, and each patient's
// simulated duration and delivery accounting is filled in.
func TestFleetPatientsIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	cl, rep := runCluster(t, fastCfg(4, 2))
	seen := make(map[uint64]int)
	for p := 0; p < 4; p++ {
		st := cl.State(p)
		if prev, dup := seen[st.Digest]; dup {
			t.Errorf("patients %d and %d share digest %#x", prev, p, st.Digest)
		}
		seen[st.Digest] = p
		if st.Packets == 0 || st.Delivered != st.Packets {
			t.Errorf("patient %d: clean link delivered %d/%d", p, st.Delivered, st.Packets)
		}
		if st.DeliveryRatio() != 1 {
			t.Errorf("patient %d: delivery ratio %.3f on a clean link", p, st.DeliveryRatio())
		}
		if st.RadioEnergyJ <= 0 || st.RadioEnergyJ != st.IdealEnergyJ {
			t.Errorf("patient %d: clean-link energy %.3e (ideal %.3e)", p, st.RadioEnergyJ, st.IdealEnergyJ)
		}
		if se := st.Se(); math.IsNaN(se) || se <= 0 {
			t.Errorf("patient %d: Se %.3f", p, se)
		}
		if st.Rounds != 1 {
			t.Errorf("patient %d: %d rounds, want 1", p, st.Rounds)
		}
	}
	if rep.SimSeconds != 24 {
		t.Errorf("fleet sim seconds %.1f, want 24", rep.SimSeconds)
	}
	if rep.RealTimeFactor <= 0 {
		t.Errorf("real-time factor %.2f", rep.RealTimeFactor)
	}
	if rep.MeanDelivery != 1 || math.IsNaN(rep.MeanSe) || math.IsNaN(rep.MeanPPV) {
		t.Errorf("aggregates: delivery %.3f Se %.3f PPV %.3f", rep.MeanDelivery, rep.MeanSe, rep.MeanPPV)
	}
}

// TestFleetLossyChannel runs the population over a bursty channel and
// checks the radio accounting reacts: retransmission energy above the
// lossless baseline and (with the retry budget) a delivery ratio that is
// still counted coherently. Determinism must hold under loss too.
func TestFleetLossyChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	cfg := fastCfg(3, 1)
	cfg.Fleet.Channel = link.ChannelConfig{
		PGoodToBad: 0.25,
		PBadToGood: 0.3,
		LossGood:   0.35,
		LossBad:    0.7,
	}
	serial, _ := runCluster(t, cfg)
	cfg.GroupShards = 3
	sharded, _ := runCluster(t, cfg)
	anyRetx := false
	for p := 0; p < 3; p++ {
		st := serial.State(p)
		if st.Digest != sharded.State(p).Digest {
			t.Errorf("patient %d: lossy run not deterministic across slot counts", p)
		}
		if st.Delivered+st.Lost != st.Packets {
			t.Errorf("patient %d: %d delivered + %d lost != %d packets", p, st.Delivered, st.Lost, st.Packets)
		}
		if st.RadioEnergyJ > st.IdealEnergyJ {
			anyRetx = true
		}
	}
	if !anyRetx {
		t.Error("no patient spent retransmission energy on a 5-50% loss channel")
	}
}

// TestFleetAnalysisMode runs a node-side analysis fleet (no radio hop,
// no gateway): beats come from the node delineator and the link metrics
// stay at their idle defaults.
func TestFleetAnalysisMode(t *testing.T) {
	cfg := ClusterConfig{
		Fleet: Config{
			Patients: 4,
			Seed:     7,
			Node:     core.Config{Mode: core.ModeDelineation},
			Noise: ecg.NoiseConfig{
				BaselineWander: 0.1,
				EMG:            0.02,
			},
		},
		GroupShards: 2,
		SessionS:    10,
	}
	cl, _ := runCluster(t, cfg)
	for p := 0; p < 4; p++ {
		st := cl.State(p)
		if st.Beats == 0 {
			t.Errorf("patient %d: node delineator found no beats", p)
		}
		if st.Packets != 0 || st.DeliveryRatio() != 1 || st.RadioEnergyJ != 0 {
			t.Errorf("patient %d: link metrics non-idle without a radio hop", p)
		}
		if se := st.Se(); math.IsNaN(se) || se < 0.8 {
			t.Errorf("patient %d: Se %.3f", p, se)
		}
	}
	cfg.GroupShards = 1
	serial, _ := runCluster(t, cfg)
	for p := 0; p < 4; p++ {
		if serial.State(p).Digest != cl.State(p).Digest {
			t.Errorf("patient %d: analysis fleet not slot-invariant", p)
		}
	}
}

// TestFleetBatchDigestInvariance is the fleet-level face of the solver
// bit-identity contract: per-patient digests are identical whatever the
// engine batch size — cold or warm-started — because each window's
// reconstruction inside a structure-of-arrays batch equals the
// sequential solve bit for bit.
func TestFleetBatchDigestInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	for _, warm := range []bool{false, true} {
		base := fastCfg(4, 2)
		base.Fleet.EngineWorkers = 2
		if warm {
			base.Fleet.SolverTol = 1e-3
			base.Fleet.WarmStart = true
		}
		serial, _ := runCluster(t, base)
		for _, batch := range []int{2, 4} {
			cfg := base
			cfg.Fleet.EngineBatch = batch
			cfg.Fleet.EngineBatchWait = time.Millisecond
			cl, _ := runCluster(t, cfg)
			for p := 0; p < 4; p++ {
				if cl.State(p).Digest != serial.State(p).Digest {
					t.Errorf("warm=%v batch=%d patient %d: digest diverged from sequential dispatch",
						warm, batch, p)
				}
			}
		}
	}
}

// TestFleetConfigDefaults pins the zero-value behaviour: a zero
// ClusterConfig becomes one round of the paper's CS fleet on one group
// sized to the host, and a negative engine pool size is refused.
func TestFleetConfigDefaults(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := cl.Config()
	if c.Fleet.Patients != 8 || c.SessionS != 30 || c.Fleet.BlockS != 1 || c.Groups != 1 || c.Rounds != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	if want := runtime.GOMAXPROCS(0); c.GroupShards != want && c.GroupShards != c.Fleet.Patients {
		t.Fatalf("default worker slots %d", c.GroupShards)
	}
	if c.Fleet.Node.Mode != core.ModeCS || c.Fleet.Node.CSRatio != 60 {
		t.Fatalf("default node %+v", c.Fleet.Node)
	}
	if _, err := NewCluster(ClusterConfig{Fleet: Config{EngineWorkers: -1}}); !errors.Is(err, ErrFleet) {
		t.Fatalf("negative EngineWorkers: err %v, want ErrFleet", err)
	}
}

// TestFleetRaceHammer drives many small patients across many worker
// slots through the shared reconstruction pool; under -race this
// exercises the slot/engine interleavings for data races (CI runs it
// explicitly).
func TestFleetRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	cfg := ClusterConfig{
		Fleet: Config{
			Patients:      8,
			Seed:          55,
			SolverIters:   15,
			EngineWorkers: 4,
			Channel: link.ChannelConfig{
				PGoodToBad: 0.1,
				PBadToGood: 0.4,
				LossBad:    0.4,
			},
		},
		GroupShards: 8,
		SessionS:    4,
	}
	cl, _ := runCluster(t, cfg)
	for p := 0; p < 8; p++ {
		if cl.State(p).Packets == 0 {
			t.Errorf("patient %d pushed no packets", p)
		}
	}
}

// TestFleetTelemetryDigestIdentity is the observability invariant: a
// fleet run with the full metric family attached produces bit-identical
// per-patient states to the same run without it — telemetry observes,
// never perturbs — while actually populating every layer's metrics.
func TestFleetTelemetryDigestIdentity(t *testing.T) {
	cfg := fastCfg(4, 2)
	cfg.Fleet.Channel = link.ChannelConfig{
		PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.02, LossBad: 0.5,
	}
	bare, _ := runCluster(t, cfg)

	set := telemetry.NewSet(telemetry.NewRegistry())
	cfg.Fleet.Telemetry = set
	instrumented, _ := runCluster(t, cfg)

	for p := 0; p < 4; p++ {
		if b, g := bare.State(p), instrumented.State(p); g != b {
			t.Errorf("patient %d: state diverged under telemetry:\n got %+v\nwant %+v", p, g, b)
		}
	}

	// Every layer saw the traffic.
	patients := uint64(cfg.Fleet.Patients)
	if got := set.Fleet.PatientsDone.Value(); got != patients {
		t.Errorf("patients done %d, want %d", got, patients)
	}
	if set.Fleet.DeliveryPermille.Snapshot().Count != patients {
		t.Error("delivery rollup missing patients")
	}
	if set.Fleet.PRDCentiPct.Snapshot().Count == 0 {
		t.Error("PRD rollup empty")
	}
	if set.Fleet.RadioEnergyJ.Value() <= 0 {
		t.Error("fleet radio energy not accumulated")
	}
	if set.Node.Chunks.Value() == 0 || set.Node.Samples.Value() == 0 {
		t.Error("node metrics empty")
	}
	if set.Link.Packets.Value() == 0 || set.Link.Attempts.Value() == 0 {
		t.Error("link metrics empty")
	}
	if set.Gateway.Decoded.Value() == 0 {
		t.Error("gateway metrics empty")
	}
	if set.Stages.Stage(telemetry.StageCS).Snapshot().Count == 0 ||
		set.Stages.Stage(telemetry.StageLink).Snapshot().Count == 0 ||
		set.Stages.Stage(telemetry.StageGatewayDecode).Snapshot().Count == 0 {
		t.Error("stage histograms missing pipeline coverage")
	}
	slotSum := uint64(0)
	for s := 0; s < cfg.GroupShards; s++ {
		slotSum += set.Fleet.Shard(s).Value()
	}
	if slotSum != patients {
		t.Errorf("worker-slot counters sum %d, want %d", slotSum, patients)
	}
	if set.Fleet.RTFMilli.Value() <= 0 {
		t.Error("real-time factor gauge not set")
	}
}
