package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/fleet"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
)

// The cohort every fleet workload runs: 16 patients, a seeded quarter
// each of AF rhythm, ambulatory noise, a congested radio cell and the
// fleet's bursty baseline channel, scheduled as 2 shard-groups × 8
// patient slots. The slots are the fleet's own goroutines and block on
// the shared decode engine, so 16 of them keep CS batches forming
// (~2.5 windows per dispatch in the traced runs).
const (
	cohortPatients = 16
	cohortGroups   = 2
	cohortSlots    = 8
	// firmwareSeed is the sensing-matrix seed: like a deployed firmware
	// image it is fixed; --seed varies only the cohort.
	firmwareSeed = 42
	// setupSeedBase seeds the throwaway constructions setup_s times; each
	// gets its own sensing matrix so the process-wide decoder cache
	// never hits.
	setupSeedBase = 1000
	setupRepeats  = 101
	// setupSlice is the calibration slice on each side of a construction.
	setupSlice = 5 * time.Millisecond
	// verifyPatients is the seeded sample replayed with VerifyPatient.
	verifyPatients = 2
)

const (
	classAF = iota
	classAmbulatory
	classCongested
	classBaseline
	numClasses
)

var classNames = [numClasses]string{"af", "ambulatory-noise", "congested-radio", "bursty-baseline"}

var (
	// baselineChannel is the fleet's bursty default (wbsn-sim -fleet/-soak).
	baselineChannel = link.ChannelConfig{PGoodToBad: 0.05, PBadToGood: 0.25, LossGood: 0.02, LossBad: 0.45}
	// congestedChannel is the "hostile" row of wbsn-sim -faulty: long,
	// deep fades that outlast the ARQ retry budget.
	congestedChannel = link.ChannelConfig{PGoodToBad: 0.3, PBadToGood: 0.08, LossGood: 0.05, LossBad: 0.95, BERBad: 1e-6, PReorder: 0.02}
	afRhythm         = ecg.RhythmConfig{Kind: ecg.RhythmAF}
	ambulatoryNoise  = ecg.AmbulatoryNoise()
)

// cohort assigns patients to classes with a seeded permutation, so each
// seed reshuffles who is in which quarter while the shares stay exact.
type cohort struct {
	base  int64
	class [cohortPatients]int
}

func newCohort(seed int64) *cohort {
	// Bases 7919 apart keep the per-patient session seeds (base+p) of
	// neighbouring --seed values disjoint.
	c := &cohort{base: seed * 7919}
	for p, k := range rand.New(rand.NewSource(seed)).Perm(cohortPatients) {
		c.class[p] = k % numClasses
	}
	return c
}

// scenario is the fleet.Scenario hook: a pure function of the patient.
func (c *cohort) scenario(p int) fleet.Scenario {
	switch c.class[p] {
	case classAF:
		return fleet.Scenario{Rhythm: &afRhythm}
	case classAmbulatory:
		return fleet.Scenario{Noise: &ambulatoryNoise}
	case classCongested:
		return fleet.Scenario{Channel: &congestedChannel}
	}
	return fleet.Scenario{}
}

func (c *cohort) describe() string {
	var n [numClasses]int
	for _, k := range c.class {
		n[k]++
	}
	s := fmt.Sprintf("%d patients:", cohortPatients)
	for k, name := range classNames {
		s += fmt.Sprintf(" %s %d/%d", name, n[k], cohortPatients)
	}
	return s
}

// fleetWorkload is one fleet.Cluster workload over the cohort.
type fleetWorkload struct {
	name     string
	node     core.Config
	sessionS float64
	// epochRounds is the fixed unit of work: a fresh cluster runs this
	// many rounds. The deterministic metrics come from the first epoch;
	// later epochs repeat it and must reproduce its digest folds.
	epochRounds int
	// sliceRounds is how many rounds run between two calibration slices.
	sliceRounds int
}

var fleetCSLossy = fleetWorkload{
	name:        "fleet-cs-lossy",
	node:        core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: firmwareSeed},
	sessionS:    8,
	epochRounds: 36,
	sliceRounds: 1,
}

var fleetDelineation = fleetWorkload{
	name:        "fleet-delineation",
	node:        core.Config{Mode: core.ModeDelineation, GateLeads: true, Seed: firmwareSeed},
	sessionS:    30,
	epochRounds: 48,
	sliceRounds: 8,
}

func (w fleetWorkload) cs() bool { return w.node.Mode == core.ModeCS }

// config is the cluster configuration: the paper's CS node (CR 60,
// 3 leads) with the warm-started batched solver, or the on-node
// delineation node with lead gating.
func (w fleetWorkload) config(coh *cohort, node core.Config, tel *telemetry.Set) fleet.ClusterConfig {
	cfg := fleet.ClusterConfig{
		Fleet: fleet.Config{
			Patients:  cohortPatients,
			Seed:      coh.base,
			Node:      node,
			Channel:   baselineChannel,
			Scenario:  coh.scenario,
			Telemetry: tel,
		},
		Groups:      cohortGroups,
		GroupShards: cohortSlots,
		Rounds:      w.epochRounds,
		SessionS:    w.sessionS,
	}
	if w.cs() {
		cfg.Fleet.SolverTol = 1e-3
		cfg.Fleet.WarmStart = true
		cfg.Fleet.EngineBatch = 8
		cfg.CarryWarm = true
	}
	return cfg
}

// newFleetTelemetry wires only the counter families the metrics read
// (link ARQ, gateway engine + solver, fleet rollups). Node stage timing
// and window tracing stay off in the untraced run.
func newFleetTelemetry() *telemetry.Set {
	reg := telemetry.NewRegistry()
	gw := telemetry.NewGatewayMetrics(reg, nil)
	return &telemetry.Set{
		Registry: reg,
		Link:     telemetry.NewLinkMetrics(reg, nil),
		Gateway:  gw,
		Solver:   gw.Solver,
		Fleet:    telemetry.NewFleetMetrics(reg),
	}
}

// timing accumulates measured slices: each slice's rate of simulated
// (or carried) ECG seconds per raw and per reference-host wall second,
// the per-unit latencies and each slice's mean latency, raw and
// normalised with the slice's calibration factor.
type timing struct {
	rawRates, normRates []float64
	latRaw, latNorm     []float64
	// The median latency is taken over slice means. The calibrator
	// averages over every P, so it tracks a slice's mean, not each unit:
	// on the reference host the two vCPUs change speed independently,
	// and a unit's latency depends on the one it ran on. In a probe
	// beside a CPU hog, the median of slice means moved 0.8% and the
	// median of units 2.4%.
	sliceLatRaw, sliceLatNorm []float64
}

func (t *timing) add(wall time.Duration, factor, sim float64, latsMs []float64) {
	if sim > 0 {
		t.rawRates = append(t.rawRates, sim/wall.Seconds())
		t.normRates = append(t.normRates, sim/(wall.Seconds()*factor))
	}
	if len(latsMs) == 0 {
		return
	}
	mean := 0.0
	for _, l := range latsMs {
		t.latRaw = append(t.latRaw, l)
		t.latNorm = append(t.latNorm, l*factor)
		mean += l / float64(len(latsMs))
	}
	t.sliceLatRaw = append(t.sliceLatRaw, mean)
	t.sliceLatNorm = append(t.sliceLatNorm, mean*factor)
}

// rtf is the median over slices of each slice's real-time factor: the
// median, not the pooled ratio, so a slice whose calibration missed a
// transient stall cannot move the figure.
func (t *timing) rtf() (raw, norm float64) { return median(t.rawRates), median(t.normRates) }

// endToEnd fills the host-normalised metrics and returns their raw
// counterparts for the audit line.
func (t *timing) endToEnd(m map[string]float64, setupRaw, setupNorm float64) map[string]float64 {
	rawRTF, normRTF := t.rtf()
	m["setup_s"] = setupNorm
	m["rtf"] = normRTF
	m["latency_p50_ms"] = median(t.sliceLatNorm)
	m["latency_p90_ms"] = percentile(t.latNorm, 0.9)
	return map[string]float64{
		"setup_s":        setupRaw,
		"rtf":            rawRTF,
		"latency_p50_ms": median(t.sliceLatRaw),
		"latency_p90_ms": percentile(t.latRaw, 0.9),
	}
}

// measureSetup times repeated fresh constructions, each with its own
// sensing-matrix seed, and returns the median raw time and the median
// of the normalised times. Setup is single-threaded, so one kernel
// calibrates it, in a short slice right before and right after each
// construction: construction times swing 2× within a process on the
// reference host, and only pairing this tight tracks the swings (in
// probes, the spread of the normalised median over ten processes fell
// from 9% with one run-wide rate to 2–3%).
func measureSetup(construct func(i int) (time.Duration, error)) (raw, norm float64, err error) {
	cal := newCalibrator(setupSlice, 1)
	var raws, norms []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		before := cal.measure()
		d, err := construct(i)
		if err != nil {
			return 0, 0, err
		}
		after := cal.measure()
		raws = append(raws, d.Seconds())
		norms = append(norms, d.Seconds()*(before+after)/2/refCalibRate)
	}
	return median(raws), median(norms), nil
}

func (w fleetWorkload) measureSetup(coh *cohort) (raw, norm float64, err error) {
	return measureSetup(func(i int) (time.Duration, error) {
		node := w.node
		node.Seed = setupSeedBase + int64(i)
		cfg := w.config(coh, node, nil)
		t0 := time.Now()
		cl, err := fleet.NewCluster(cfg)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		cl.Close()
		return d, nil
	})
}

// epoch is one fresh cluster's run of the fixed unit of work.
type epoch struct {
	cl     *fleet.Cluster
	tel    *telemetry.Set
	folds  []uint64
	rounds int
}

// runEpoch builds a cluster and runs up to epochRounds rounds in
// calibrated slices, stopping early (at a slice boundary) when stop
// says so. Each round's wall time is one latency sample.
func (w fleetWorkload) runEpoch(coh *cohort, pc *paced, t *timing, stop func() bool) (*epoch, error) {
	tel := newFleetTelemetry()
	cl, err := fleet.NewCluster(w.config(coh, w.node, tel))
	if err != nil {
		return nil, err
	}
	ep := &epoch{cl: cl, tel: tel}
	for ep.rounds < w.epochRounds && !stop() {
		n := min(w.sliceRounds, w.epochRounds-ep.rounds)
		lats := make([]float64, 0, n)
		wall, f, err := pc.slice(func() error {
			for i := 0; i < n; i++ {
				t0 := time.Now()
				rr, err := cl.RunRound()
				if err != nil {
					return err
				}
				lats = append(lats, float64(time.Since(t0))/1e6)
				ep.folds = append(ep.folds, rr.DigestFold)
			}
			return nil
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		ep.rounds += n
		t.add(wall, f, float64(n*cohortPatients)*w.sessionS, lats)
	}
	return ep, nil
}

// quality computes the deterministic metrics from a completed epoch:
// QRS sensitivity pooled over patients, PRD and radio energy per window.
func (w fleetWorkload) quality(ep *epoch, m map[string]float64) error {
	rep := ep.cl.Report()
	var tp, fn uint64
	for p := 0; p < cohortPatients; p++ {
		st := ep.cl.State(p)
		tp += uint64(st.TP)
		fn += uint64(st.FN)
	}
	m["qrs_se_pct"] = 100 * float64(tp) / float64(tp+fn)
	if w.cs() {
		prd := ep.tel.Fleet.PRDCentiPct.Snapshot()
		m["prd_pct"] = float64(prd.Sum) / float64(prd.Count) / 100
		m["radio_uj_per_window"] = rep.RadioEnergyJ / float64(rep.Packets) * 1e6
		return nil
	}
	// On-node delineation ships no waveform, so nothing is reconstructed
	// and the PRD of the (empty) reconstruction is 100% by definition.
	// Its radio spend is one beat-fiducial packet per delineated beat,
	// priced by the node's own payload and radio models, per 2-s window
	// of signal.
	node, err := core.NewNode(w.node)
	if err != nil {
		return err
	}
	probe, err := node.Process(ecg.Generate(ecg.Config{Seed: 1, Duration: 10}))
	if err != nil {
		return err
	}
	if len(probe.Beats) == 0 {
		return fmt.Errorf("delineation probe found no beats")
	}
	nc := node.Config()
	beatJ := energy.DefaultRadio().TxEnergyJ(probe.TxBytes / len(probe.Beats))
	windows := rep.SimSeconds * nc.Fs / float64(nc.CSWindow)
	m["prd_pct"] = 100
	m["radio_uj_per_window"] = beatJ * float64(rep.Beats) / windows * 1e6
	return nil
}

// describeEpoch prints the cohort's measured loss picture: per-class
// share of windows lost, and the link's retransmission and the
// solver's warm-reset shares.
func describeEpoch(coh *cohort, ep *epoch) {
	var pk, lost [numClasses]uint64
	for p := 0; p < cohortPatients; p++ {
		st := ep.cl.State(p)
		pk[coh.class[p]] += uint64(st.Packets)
		lost[coh.class[p]] += uint64(st.Lost)
	}
	fmt.Printf("cohort: %s\n", coh.describe())
	tel := ep.tel
	packets := tel.Link.Packets.Value()
	if packets == 0 {
		fmt.Println("windows: none on the radio (on-node analysis ships beats, not windows)")
		return
	}
	fmt.Printf("windows: %d sent, lost %.2f%%, retransmitted %.2f%% (attempts/window %.3f), warm-reset %.2f%% of sent, cold fallbacks %d\n",
		packets, pct(tel.Link.Lost.Value(), packets), pct(tel.Link.Retransmissions.Value(), packets),
		float64(tel.Link.Attempts.Value())/float64(packets), pct(tel.Solver.WarmResets.Value(), packets),
		tel.Solver.ColdFallbacks.Value())
	for k, name := range classNames {
		fmt.Printf("  %-17s lost %d of %d windows (%.2f%%)\n", name, lost[k], pk[k], pct(lost[k], pk[k]))
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// states copies every patient's cold-tier state.
func states(cl *fleet.Cluster) []fleet.PatientState {
	s := make([]fleet.PatientState, cohortPatients)
	for p := range s {
		s[p] = cl.State(p)
	}
	return s
}

// run is the untraced end-to-end measurement: epochs of the fixed work
// in calibrated slices until the time budget is spent, the correctness
// gates and the deterministic metrics of epoch 0, then setup.
func (w fleetWorkload) run(p params) (*outcome, error) {
	coh := newCohort(p.seed)
	if p.trace {
		return w.traced(p, coh)
	}
	out := &outcome{metrics: map[string]float64{}}
	cal := newCalibrator(60*time.Millisecond, runtime.GOMAXPROCS(0))
	pc := newPaced(cal)
	var t timing
	var ref []fleet.PatientState
	var refFolds []uint64
	var last *epoch
	for e := 0; ; e++ {
		stop := func() bool { return e > 0 && pc.spent >= p.seconds }
		ep, err := w.runEpoch(coh, pc, &t, stop)
		if err != nil {
			return nil, err
		}
		out.attempted += ep.rounds * cohortPatients
		if e == 0 {
			ref, refFolds = states(ep.cl), ep.folds
			describeEpoch(coh, ep)
			if err := w.quality(ep, out.metrics); err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(p.seed))
			for _, pt := range rng.Perm(cohortPatients)[:verifyPatients] {
				out.attempted++
				if err := ep.cl.VerifyPatient(pt); err != nil {
					out.fail("VerifyPatient(%d): %v", pt, err)
				}
			}
		} else {
			for r, f := range ep.folds {
				if f != refFolds[r] {
					out.failed += cohortPatients
					fmt.Printf("FAIL: epoch %d round %d digest fold %016x, epoch 0 had %016x\n", e, r, f, refFolds[r])
				}
			}
			if ep.rounds == w.epochRounds {
				for pt, st := range states(ep.cl) {
					if st != ref[pt] {
						out.fail("epoch %d patient %d cold state differs from epoch 0", e, pt)
					}
				}
			}
		}
		if last != nil {
			last.cl.Close()
		}
		last = ep
		if ep.rounds < w.epochRounds || pc.spent >= p.seconds {
			break
		}
	}
	ms := liveHeap()
	out.metrics["heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	last.cl.Close()
	// Setup is timed last: its throwaway constructions fill the
	// process-wide decoder cache, which must not count in the live heap.
	setupRaw, setupNorm, err := w.measureSetup(coh)
	if err != nil {
		return nil, err
	}
	raw := t.endToEnd(out.metrics, setupRaw, setupNorm)
	printRaw(raw, cal, fmt.Sprintf("%d rounds of %d patients × %.0f s", len(t.latRaw), cohortPatients, w.sessionS))
	return out, nil
}
