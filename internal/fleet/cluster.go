package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/gateway"
	"wbsn/internal/telemetry"
)

// Cluster is the fleet engine, a fleet of fleets: the population is
// block-partitioned across shard-groups, each group runs its own worker
// slots over pooled rigs, and every aggregate — digest folds, round
// rollups, telemetry — combines worker→group→cluster, so no path
// serialises the whole population through one goroutine. One 1×1
// cluster certifies a handful of patients; the same code serves 10⁵–10⁶.
//
// Memory is the first-class axis. Per patient, the cluster keeps only
// the cold tier: one 64-byte PatientState, plus (opt-in) one compact
// float32 warm-start snapshot. The hot tier — streams, receivers,
// reassembler windows, trace rings — exists only per worker slot,
// exactly Groups×GroupShards rigs however large the population. The
// planned bytes/patient figure is computed before any population
// allocation and enforced against BudgetBytesPerPatient, and MemStats
// reports both the plan and the observed heap residency.
//
// Time advances in rounds: round r simulates SessionS seconds of every
// patient. Round 0 seeds patient p's session with Seed+p; later rounds
// mix the round index in deterministically. The cumulative digest lives
// in PatientState (a resumable FNV-1a), so scheduling, topology and
// checkpoint/restore boundaries are all invisible to it.
type Cluster struct {
	// ccfg is the effective cluster configuration; cfg is its Fleet
	// part, the chain configuration every session reads.
	ccfg ClusterConfig
	cfg  Config
	// node is the shared node template (one sensing matrix fleet-wide,
	// like a deployed firmware image). gcfg is the matching gateway
	// configuration and pool the shared reconstruction engine; both are
	// set in CS mode only.
	node   *core.Node
	gcfg   gateway.Config
	pool   *gateway.Engine
	states []PatientState
	warm   *warmStore
	rigs   []*rig
	mem    MemStats
	rounds int
	// err is the first failed round's error. A failed round leaves the
	// population half-advanced, so every later RunRound, Run and
	// WriteCheckpoint returns it instead of building on that state.
	err error
	// wallS accumulates the parallel-section time of completed rounds.
	wallS float64
	// verifyRig is the spare rig used by VerifyPatient (built lazily;
	// trace-session id Groups×GroupShards, past every worker's).
	verifyRig *rig
}

// ClusterConfig parameterises a hierarchical run.
type ClusterConfig struct {
	// Fleet is the population-wide chain configuration; Patients is the
	// population size.
	Fleet Config
	// Groups is the number of shard-groups (default 1). The population
	// is block-partitioned across groups.
	Groups int
	// GroupShards is the worker count per group (default GOMAXPROCS,
	// clamped so the cluster never has more workers than patients).
	GroupShards int
	// Rounds is the number of scheduling rounds Run executes (default
	// 1). Each round simulates SessionS seconds of every patient.
	Rounds int
	// SessionS is the simulated seconds per patient per round (default
	// 30).
	SessionS float64
	// CarryWarm keeps each patient's warm-start solver coefficients
	// across rounds in the compact float32 cold tier. Requires a
	// warm-started CS fleet; costs warmBytesPerPatient of residency.
	CarryWarm bool
	// BudgetBytesPerPatient caps the planned cold-tier residency.
	// NewCluster fails with ErrBudget before allocating the population
	// if the plan exceeds it (0 disables enforcement).
	BudgetBytesPerPatient int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	out := c
	out.Fleet = out.Fleet.withDefaults()
	if out.Groups <= 0 {
		out.Groups = 1
	}
	if out.GroupShards <= 0 {
		out.GroupShards = runtime.GOMAXPROCS(0)
	}
	if out.Groups > out.Fleet.Patients {
		out.Groups = out.Fleet.Patients
	}
	perGroup := (out.Fleet.Patients + out.Groups - 1) / out.Groups
	if out.GroupShards > perGroup {
		out.GroupShards = perGroup
	}
	if out.Rounds <= 0 {
		out.Rounds = 1
	}
	if out.SessionS <= 0 {
		out.SessionS = 30
	}
	return out
}

// MemStats is the cluster's memory report: the per-patient plan the
// budget enforces, and the observed process heap at Mem() time.
type MemStats struct {
	// Patients is the population size; Rigs the hot-tier rig count
	// (Groups×GroupShards, population-independent).
	Patients int
	Rigs     int
	// ColdBytesPerPatient is the fixed PatientState size;
	// WarmBytesPerPatient the compact snapshot size (0 when CarryWarm
	// is off); PlannedBytesPerPatient their sum — the figure enforced
	// against BudgetBytesPerPatient.
	ColdBytesPerPatient    int
	WarmBytesPerPatient    int
	PlannedBytesPerPatient int
	BudgetBytesPerPatient  int
	// HeapInuseBytes/HeapSysBytes/Goroutines sample the Go runtime at
	// Mem() time; ObservedBytesPerPatient is HeapInuse/Patients — an
	// upper bound on true per-patient residency since it includes the
	// population-independent baseline (rigs, solver state, binaries').
	HeapInuseBytes          uint64
	HeapSysBytes            uint64
	Goroutines              int
	ObservedBytesPerPatient float64
}

// RoundReport summarises one scheduling round.
type RoundReport struct {
	// Round is the 0-based index of the completed round.
	Round int
	// Patients is the population size; SimSeconds = Patients×SessionS.
	Patients    int
	WallSeconds float64
	SimSeconds  float64
	// RealTimeFactor is SimSeconds/WallSeconds for this round.
	RealTimeFactor float64
	// DigestFold is the order-free fold of every patient's cumulative
	// digest after this round (combined worker→group→cluster).
	DigestFold uint64
}

// ClusterReport aggregates a whole run.
type ClusterReport struct {
	Patients int
	// Rounds is the number of completed rounds; SimSeconds the total
	// simulated signal time (Patients×Rounds×SessionS).
	Rounds      int
	SimSeconds  float64
	WallSeconds float64
	// RealTimeFactor is SimSeconds/WallSeconds — patients/core is
	// RealTimeFactor at a 1-core GOMAXPROCS.
	RealTimeFactor float64
	// DigestFold is the order-free fold of all patient digests.
	DigestFold uint64
	// Chain counter totals across the population.
	Events    uint64
	Packets   uint64
	Delivered uint64
	Lost      uint64
	Beats     uint64
	// RadioEnergyJ sums the population's radio spend.
	RadioEnergyJ float64
	// MeanSe/MeanPPV/MeanDelivery average the per-patient accumulated
	// scores (patients with no scorable beats excluded).
	MeanSe       float64
	MeanPPV      float64
	MeanDelivery float64
}

// NewCluster validates the configuration, enforces the memory budget,
// and builds the shared and tiered state: the node template (one
// sensing matrix fleet-wide), the reconstruction pool, the flat
// cold-tier population array, the optional warm snapshot store, and
// Groups×GroupShards pooled rigs.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	c := cfg.withDefaults()
	if c.Fleet.EngineWorkers < 0 {
		return nil, fmt.Errorf("%w: EngineWorkers %d is negative", ErrFleet, c.Fleet.EngineWorkers)
	}
	node, err := core.NewNode(c.Fleet.Node)
	if err != nil {
		return nil, err
	}
	nodeCfg := node.Config()
	if c.CarryWarm {
		if nodeCfg.Mode != core.ModeCS || !c.Fleet.WarmStart {
			return nil, fmt.Errorf("%w: CarryWarm requires a warm-started CS fleet (Mode=CS, WarmStart=true)", ErrFleet)
		}
	}

	// Budget gate: plan the per-patient residency before allocating any
	// of it, so an over-budget configuration fails in O(1).
	mem := MemStats{
		Patients:              c.Fleet.Patients,
		Rigs:                  c.Groups * c.GroupShards,
		ColdBytesPerPatient:   patientStateBytes,
		BudgetBytesPerPatient: c.BudgetBytesPerPatient,
	}
	if c.CarryWarm {
		mem.WarmBytesPerPatient = warmBytesPerPatient(nodeCfg.Leads, nodeCfg.CSWindow)
	}
	mem.PlannedBytesPerPatient = mem.ColdBytesPerPatient + mem.WarmBytesPerPatient
	if c.BudgetBytesPerPatient > 0 && mem.PlannedBytesPerPatient > c.BudgetBytesPerPatient {
		return nil, fmt.Errorf("%w: planned %d B/patient (cold %d + warm %d) exceeds budget %d",
			ErrBudget, mem.PlannedBytesPerPatient, mem.ColdBytesPerPatient,
			mem.WarmBytesPerPatient, c.BudgetBytesPerPatient)
	}
	cl := &Cluster{ccfg: c, cfg: c.Fleet, node: node, mem: mem}

	if nodeCfg.Mode == core.ModeCS {
		cl.gcfg = gateway.MatchNode(nodeCfg)
		if c.Fleet.SolverIters > 0 {
			cl.gcfg.Solver.Iters = c.Fleet.SolverIters
		}
		cl.gcfg.Solver.Tol = c.Fleet.SolverTol
		cl.gcfg.WarmStart = c.Fleet.WarmStart
		ecfg := gateway.EngineConfig{Workers: c.Fleet.EngineWorkers, Batch: c.Fleet.EngineBatch, BatchWait: c.Fleet.EngineBatchWait}
		if c.Fleet.Telemetry != nil {
			ecfg.Metrics = c.Fleet.Telemetry.Gateway
		}
		if cl.pool, err = gateway.NewEngine(cl.gcfg, ecfg); err != nil {
			return nil, err
		}
	}

	cl.states = make([]PatientState, c.Fleet.Patients)
	for p := range cl.states {
		cl.states[p].Digest = fnvOffset64
	}
	if c.CarryWarm {
		cl.warm = newWarmStore(c.Fleet.Patients, nodeCfg.Leads, nodeCfg.CSWindow)
	}
	cl.rigs = make([]*rig, c.Groups*c.GroupShards)
	for i := range cl.rigs {
		r, err := cl.newRig(i)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.rigs[i] = r
	}
	return cl, nil
}

// Config returns the effective cluster configuration.
func (cl *Cluster) Config() ClusterConfig { return cl.ccfg }

// PlanDescription summarises the compiled node pipeline every rig
// executes (one plan fleet-wide; each rig runs it through a private
// executor).
func (cl *Cluster) PlanDescription() string { return cl.node.Plan().Describe() }

// Close releases the shared reconstruction pool.
func (cl *Cluster) Close() {
	if cl.pool != nil {
		cl.pool.Close()
	}
}

// RoundsDone returns the number of completed scheduling rounds.
func (cl *Cluster) RoundsDone() int { return cl.rounds }

// State returns patient p's cold-tier state (a copy).
func (cl *Cluster) State(p int) PatientState { return cl.states[p] }

// Mem returns the memory report with the runtime fields sampled now.
func (cl *Cluster) Mem() MemStats {
	m := cl.mem
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapInuseBytes = ms.HeapInuse
	m.HeapSysBytes = ms.HeapSys
	m.Goroutines = runtime.NumGoroutine()
	if m.Patients > 0 {
		m.ObservedBytesPerPatient = float64(ms.HeapInuse) / float64(m.Patients)
	}
	return m
}

// splitmix64 is the seed mixer for round derivation: deterministic,
// dependency-free, and a bijection on uint64.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sessionSeed derives patient p's seed for one scheduling round. Round
// 0 is Seed+p, the seed TestClusterDigestGolden's round-0 digests were
// captured with; later rounds mix the round index through splitmix64 so
// each slice sees fresh, reproducible randomness that depends only on
// (Seed, p, round) — never on topology or scheduling order.
func sessionSeed(base int64, p, round int) int64 {
	if round == 0 {
		return base + int64(p)
	}
	return int64(splitmix64(uint64(base+int64(p)) ^ uint64(round)*0x9e3779b97f4a7c15))
}

// foldDigest mixes one patient's digest into an order-free fold: each
// (patient, digest) pair maps through splitmix64 and the results XOR,
// so worker/group/cluster partial folds combine associatively and the
// fold is identical at any topology.
func foldDigest(p int, d uint64) uint64 {
	return splitmix64(d ^ splitmix64(uint64(p)))
}

// RunRound simulates SessionS seconds of every patient: each group's
// workers deal the group's block of patients round-robin, rehydrate the
// cold (and warm) tiers onto their rig, run one session, and fold the
// outcome back. Telemetry flushes once per worker per round and digest
// folds combine worker→group→cluster, so the fan-in at every node of
// the aggregation tree is bounded by the topology, not the population.
//
// A failed round is final: the workers that did not fail have already
// advanced their patients, so the cluster keeps the error and returns
// it from every later RunRound, Run and WriteCheckpoint.
func (cl *Cluster) RunRound() (*RoundReport, error) {
	if cl.err != nil {
		return nil, cl.err
	}
	c := cl.ccfg
	P := c.Fleet.Patients
	perGroup := (P + c.Groups - 1) / c.Groups
	round := cl.rounds
	groupFolds := make([]uint64, c.Groups)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	start := time.Now()
	for g := 0; g < c.Groups; g++ {
		lo := g * perGroup
		hi := lo + perGroup
		if hi > P {
			hi = P
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(g, lo, hi int) {
			defer wg.Done()
			workerFolds := make([]uint64, c.GroupShards)
			var (
				gwg  sync.WaitGroup
				gmu  sync.Mutex
				gerr error
			)
			for s := 0; s < c.GroupShards; s++ {
				gwg.Add(1)
				go func(s int) {
					defer gwg.Done()
					r := cl.rigs[g*c.GroupShards+s]
					var fb *telemetry.FleetBatch
					if tel := c.Fleet.Telemetry; tel != nil {
						fb = tel.Fleet.NewBatch(g*c.GroupShards + s)
					}
					fold := uint64(0)
					for p := lo + s; p < hi; p += c.GroupShards {
						seed := sessionSeed(c.Fleet.Seed, p, round)
						if err := cl.runSession(r, &cl.states[p], p, seed, c.SessionS, cl.warm, fb); err != nil {
							gmu.Lock()
							if gerr == nil {
								gerr = err
							}
							gmu.Unlock()
							return
						}
						fold ^= foldDigest(p, cl.states[p].Digest)
					}
					fb.Flush()
					workerFolds[s] = fold
				}(s)
			}
			gwg.Wait()
			if gerr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = gerr
				}
				mu.Unlock()
				return
			}
			fold := uint64(0)
			for _, f := range workerFolds {
				fold ^= f
			}
			groupFolds[g] = fold
		}(g, lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		cl.err = fmt.Errorf("fleet: round %d failed: %w", round, firstErr)
		return nil, cl.err
	}
	cl.rounds++
	wall := time.Since(start).Seconds()
	cl.wallS += wall
	rr := &RoundReport{
		Round:       round,
		Patients:    P,
		WallSeconds: wall,
		SimSeconds:  float64(P) * c.SessionS,
	}
	for _, f := range groupFolds {
		rr.DigestFold ^= f
	}
	if wall > 0 {
		rr.RealTimeFactor = rr.SimSeconds / wall
	}
	if tel := c.Fleet.Telemetry; tel != nil {
		tel.Fleet.RTFMilli.Set(int64(rr.RealTimeFactor * 1000))
	}
	return rr, nil
}

// Run executes the configured rounds that have not run yet (all of
// them on a fresh cluster; the remainder after a checkpoint restore)
// and returns the aggregate report.
func (cl *Cluster) Run() (*ClusterReport, error) {
	for cl.rounds < cl.ccfg.Rounds {
		if _, err := cl.RunRound(); err != nil {
			return nil, err
		}
	}
	if cl.err != nil {
		return nil, cl.err
	}
	return cl.Report(), nil
}

// Report folds the population's cold states into the aggregate report.
// The fold runs one goroutine per group over that group's block — the
// same bounded fan-in shape as the simulation itself.
func (cl *Cluster) Report() *ClusterReport {
	c := cl.ccfg
	P := c.Fleet.Patients
	rep := &ClusterReport{
		Patients:    P,
		Rounds:      cl.rounds,
		SimSeconds:  float64(P) * float64(cl.rounds) * c.SessionS,
		WallSeconds: cl.wallS,
	}
	type partial struct {
		fold                                    uint64
		events, packets, delivered, lost, beats uint64
		radioJ, seSum, ppvSum, deliverySum      float64
		seN, ppvN                               int
	}
	parts := make([]partial, c.Groups)
	perGroup := (P + c.Groups - 1) / c.Groups
	var wg sync.WaitGroup
	for g := 0; g < c.Groups; g++ {
		lo := g * perGroup
		hi := lo + perGroup
		if hi > P {
			hi = P
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(g, lo, hi int) {
			defer wg.Done()
			pt := &parts[g]
			for p := lo; p < hi; p++ {
				st := &cl.states[p]
				pt.fold ^= foldDigest(p, st.Digest)
				pt.events += uint64(st.Events)
				pt.packets += uint64(st.Packets)
				pt.delivered += uint64(st.Delivered)
				pt.lost += uint64(st.Lost)
				pt.beats += uint64(st.Beats)
				pt.radioJ += st.RadioEnergyJ
				pt.deliverySum += st.DeliveryRatio()
				if se := st.Se(); !math.IsNaN(se) {
					pt.seSum += se
					pt.seN++
				}
				if ppv := st.PPV(); !math.IsNaN(ppv) {
					pt.ppvSum += ppv
					pt.ppvN++
				}
			}
		}(g, lo, hi)
	}
	wg.Wait()
	var seSum, ppvSum, deliverySum float64
	var seN, ppvN int
	for i := range parts {
		pt := &parts[i]
		rep.DigestFold ^= pt.fold
		rep.Events += pt.events
		rep.Packets += pt.packets
		rep.Delivered += pt.delivered
		rep.Lost += pt.lost
		rep.Beats += pt.beats
		rep.RadioEnergyJ += pt.radioJ
		seSum += pt.seSum
		ppvSum += pt.ppvSum
		deliverySum += pt.deliverySum
		seN += pt.seN
		ppvN += pt.ppvN
	}
	rep.MeanSe, rep.MeanPPV = math.NaN(), math.NaN()
	if seN > 0 {
		rep.MeanSe = seSum / float64(seN)
	}
	if ppvN > 0 {
		rep.MeanPPV = ppvSum / float64(ppvN)
	}
	if P > 0 {
		rep.MeanDelivery = deliverySum / float64(P)
	}
	if rep.WallSeconds > 0 {
		rep.RealTimeFactor = rep.SimSeconds / rep.WallSeconds
	}
	return rep
}

// VerifyPatient is the digest-drift detector: it replays patient p's
// entire history so far — every completed round, from a cold state, on
// a spare rig — and compares the replayed digest against the live cold
// tier. A mismatch means the pooled-rig/tiered-state machinery diverged
// from the pure per-patient computation, which is exactly the corruption
// a long soak must catch. Cost is RoundsDone×SessionS of simulation for
// one patient, so a soak can afford one verification per round.
func (cl *Cluster) VerifyPatient(p int) error {
	if p < 0 || p >= len(cl.states) {
		return fmt.Errorf("%w: patient %d out of range", ErrFleet, p)
	}
	if cl.verifyRig == nil {
		r, err := cl.newRig(cl.ccfg.Groups * cl.ccfg.GroupShards)
		if err != nil {
			return err
		}
		cl.verifyRig = r
	}
	st := PatientState{Digest: fnvOffset64}
	var warm *warmStore
	if cl.warm != nil {
		warm = newWarmStoreAt(p, 1, cl.warm.leads, cl.warm.n)
	}
	rounds := int(cl.states[p].Rounds)
	for round := 0; round < rounds; round++ {
		seed := sessionSeed(cl.cfg.Seed, p, round)
		if err := cl.runSession(cl.verifyRig, &st, p, seed, cl.ccfg.SessionS, warm, nil); err != nil {
			return err
		}
	}
	if st.Digest != cl.states[p].Digest {
		return fmt.Errorf("%w: patient %d digest drift: live %016x, replay %016x",
			ErrDrift, p, cl.states[p].Digest, st.Digest)
	}
	return nil
}
