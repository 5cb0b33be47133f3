// Package fleet scales the paper's single-patient pipeline to a
// population: N independent patients — each with its own ECG generator
// seed, streaming node, lossy radio link and gateway receiver — are
// simulated concurrently by a Cluster's worker slots. The package is
// the load harness behind the ROADMAP's production north star: per-node
// cost bounds how many wearers one host core can serve, so the fleet
// reports a real-time factor (simulated seconds per wall second)
// alongside the clinical and radio metrics.
//
// Determinism is the design invariant: every patient's chain is a pure
// function of its seeds (record synthesis, channel fading, ACK loss) and
// the CS reconstruction is bit-identical however it is scheduled (the
// gateway engine decodes with cloned, immutable solver state). Patient p
// therefore produces the same event stream and the same digest whether
// the cluster runs 1 worker slot or 64 — which is what
// TestFleetBitIdentity and the wbsn-sim -fleet sweep verify.
//
// Worker model: a Cluster's Groups×GroupShards worker slots each own one
// pooled rig — a core.Stream and a gateway.Receiver that are Reset
// between patients instead of rebuilt, plus reusable block headers — so
// steady-state patient turnover does not touch the allocator beyond the
// per-patient link/channel state and the record itself. CS windows from
// every slot funnel into one shared gateway.Engine worker pool for
// reconstruction.
package fleet

import (
	"errors"
	"math"
	"time"

	"wbsn/internal/cohort"
	"wbsn/internal/core"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

// ErrFleet is returned for invalid fleet configurations.
var ErrFleet = errors.New("fleet: invalid configuration")

// ErrBudget is returned by NewCluster when the planned per-patient
// residency exceeds ClusterConfig.BudgetBytesPerPatient.
var ErrBudget = errors.New("fleet: memory budget exceeded")

// ErrDrift is returned by Cluster.VerifyPatient when a from-scratch
// replay disagrees with the live cold-tier digest.
var ErrDrift = errors.New("fleet: digest drift")

// Config parameterises a fleet run.
type Config struct {
	// Patients is the population size (default 8).
	Patients int
	// Seed is the base seed: patient p derives its record, channel and
	// ARQ randomness from Seed+p, so populations are reproducible and
	// patients are mutually independent.
	Seed int64
	// Node configures every patient's sensor node (default ModeCS at the
	// paper's 60% ratio; the sensing-matrix seed is shared fleet-wide,
	// exactly like a deployed firmware image).
	Node core.Config
	// Noise is the additive noise mix of every synthesised record.
	Noise ecg.NoiseConfig
	// Channel is the Gilbert–Elliott radio channel of every patient (its
	// Seed field is overridden per patient). The zero value is a
	// lossless link.
	Channel link.ChannelConfig
	// ARQ configures the stop-and-wait sender (per-patient Seed
	// override; the zero value uses the link defaults).
	ARQ link.ARQConfig
	// SolverIters overrides the gateway's FISTA iteration budget
	// (0 keeps the gateway default of 150).
	SolverIters int
	// SolverTol enables the convergence-aware solver: reconstructions
	// stop once the iterate stabilises instead of spending the full
	// budget (0 keeps the fixed-budget solver, bit-identical to earlier
	// revisions).
	SolverTol float64
	// WarmStart carries each patient's wavelet coefficients from window
	// to window through the pooled rigs. The warm cache is per receiver
	// (one stream per worker slot at a time) and is cleared on every
	// patient boundary by the rig Reset, so coefficients never leak
	// between patients; digests remain slot-count invariant because each
	// patient's window sequence decodes in order either way.
	WarmStart bool
	// EngineWorkers sizes the shared reconstruction pool (default
	// GOMAXPROCS). NewCluster rejects a negative value with ErrFleet.
	EngineWorkers int
	// EngineBatch is the most queued windows one engine worker dispatch
	// reconstructs in a single structure-of-arrays solver pass (default
	// 1 — sequential dispatch). Per window the reconstruction is
	// bit-identical at every batch size, so patient digests stay
	// batch-size-invariant (TestFleetBatchDigestInvariance).
	EngineBatch int
	// EngineBatchWait bounds how long an engine worker holding a
	// partial batch waits for more windows before dispatching (0
	// dispatches greedily with whatever is queued).
	EngineBatchWait time.Duration
	// BlockS is the acquisition block in seconds: samples are pushed in
	// blocks and the resulting events drained in one batch per block
	// (default 1 s).
	BlockS float64
	// Scenario, when set, overrides the population-wide chain defaults
	// per patient, so one fleet can model a heterogeneous cohort (AF
	// cases, noisy ambulatory leads, congested radio cells). It MUST be
	// a pure function of the patient index: it is consulted on every
	// scheduling turn and again after a checkpoint restore, so any
	// state- or time-dependence breaks the fleet's bit-identity
	// invariant.
	Scenario func(p int) Scenario
	// Telemetry, when set, wires every layer's metric family into the
	// run: node stage timings, link ARQ counters, gateway queue/latency
	// and the per-patient fleet rollups — plus end-to-end window traces
	// when the set carries a trace collector (one ring per worker slot,
	// window IDs tagged by patient). Pure observation — digests are
	// bit-identical with or without it (TestFleetTelemetryDigestIdentity).
	Telemetry *telemetry.Set
}

func (c Config) withDefaults() Config {
	out := c
	if out.Patients <= 0 {
		out.Patients = 8
	}
	if out.Node.Mode == core.ModeRawStreaming && out.Node.CSRatio == 0 {
		// Zero Node means "the paper's CS node".
		out.Node = core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: out.Seed}
	}
	if out.Channel.PBadToGood == 0 && out.Channel.PGoodToBad == 0 {
		out.Channel.PBadToGood = 1 // valid Markov chain for the clean default
	}
	if out.BlockS <= 0 {
		out.BlockS = 1
	}
	return out
}

// Scenario is one patient's deviation from the population defaults
// (cohort.Scenario). The alias stays while the benchmark names it.
type Scenario = cohort.Scenario

func (cl *Cluster) scenarioFor(p int) Scenario {
	if cl.cfg.Scenario == nil {
		return Scenario{}
	}
	return cl.cfg.Scenario(p)
}

// rig is one worker slot's pooled per-patient state: constructed once,
// Reset between patients.
type rig struct {
	stream *core.Stream
	rx     *gateway.Receiver
	block  [][]float64
	// tr is the slot's window-trace ring (nil when the telemetry set
	// carries no trace collector). One ring per slot: a slot runs one
	// patient at a time, and patient p tags its windows with hi=p, so
	// trace IDs stay unique fleet-wide.
	tr *trace.Ring
}

// newRig builds one worker slot's pooled state.
func (cl *Cluster) newRig(shard int) (*rig, error) {
	stream, err := cl.node.NewStream()
	if err != nil {
		return nil, err
	}
	if tel := cl.cfg.Telemetry; tel != nil {
		stream.SetTelemetry(tel.Node)
	}
	r := &rig{stream: stream}
	if tel := cl.cfg.Telemetry; tel != nil && tel.Trace != nil {
		r.tr = tel.Trace.Session(uint64(shard))
	}
	if cl.node.Config().Mode == core.ModeCS {
		rx, err := gateway.NewReceiver(cl.gcfg)
		if err != nil {
			return nil, err
		}
		if err := rx.AttachEngine(cl.pool); err != nil {
			return nil, err
		}
		rx.SetTrace(r.tr)
		r.rx = rx
	}
	return r, nil
}

// runSession replays durS seconds of patient p through a pooled rig and
// folds the outcome into the patient's cold state. The digest resumes
// from st.Digest — the entire FNV-1a hash state — so a multi-round
// patient (scheduling slices, checkpoint restores) accumulates the
// exact hash a single uninterrupted run would produce.
//
// warm, when non-nil, is the cold-tier snapshot store: the patient's
// compact float32 coefficients are rehydrated into the rig's receiver
// before the first window and captured back after the last. fb, when
// non-nil, receives the session's telemetry rollups (flushed by the
// caller, bounded fan-in).
func (cl *Cluster) runSession(r *rig, st *PatientState, p int, seed int64, durS float64, warm *warmStore, fb *telemetry.FleetBatch) error {
	c := cl.cfg
	sc := cl.scenarioFor(p)
	ecfg := ecg.Config{Seed: seed, Duration: durS, Noise: c.Noise}
	if sc.Noise != nil {
		ecfg.Noise = *sc.Noise
	}
	if sc.Rhythm != nil {
		ecfg.Rhythm = *sc.Rhythm
	}
	rec := ecg.Generate(ecfg)

	r.stream.Reset()
	if r.tr != nil {
		// Windows of patient p carry trace IDs tagged hi=p; the ring is
		// the shard's, reused across its patients.
		r.stream.SetTrace(r.tr, uint32(p))
	}
	var lk *link.Link
	if r.rx != nil {
		r.rx.Reset()
		warm.restore(p, r.rx)
		chCfg := c.Channel
		if sc.Channel != nil {
			chCfg = *sc.Channel
			if chCfg.PBadToGood == 0 && chCfg.PGoodToBad == 0 {
				chCfg.PBadToGood = 1 // same normalisation as the fleet default
			}
		}
		chCfg.Seed = seed
		ch, err := link.NewChannel(chCfg)
		if err != nil {
			return err
		}
		arq := c.ARQ
		if sc.ARQ != nil {
			arq = *sc.ARQ
		}
		arq.Seed = seed
		lk, err = link.NewLink(arq, ch, r.rx)
		if err != nil {
			return err
		}
		if tel := c.Telemetry; tel != nil {
			lk.SetTelemetry(tel.Link)
		}
		lk.SetTrace(r.tr)
	}

	digest := newFNV64a(st.Digest)
	var nodeBeats []delineation.BeatFiducials
	var events int
	consume := func(evs []core.Event) error {
		for _, ev := range evs {
			events++
			hashEvent(digest, ev)
			switch ev.Kind {
			case core.EventPacket:
				if ev.Measurements != nil && lk != nil {
					// SendTraced with a zero ID is exactly SendMeasurements,
					// so the untraced path is unchanged.
					if _, err := lk.SendTraced(ev.At, ev.Trace, ev.Measurements); err != nil {
						return err
					}
				}
			case core.EventBeat:
				nodeBeats = append(nodeBeats, ev.Beat.Fiducials)
			}
		}
		return nil
	}

	// Batched acquisition: push one block, drain its events in one batch.
	blockLen := int(c.BlockS * cl.node.Config().Fs)
	if blockLen < 1 {
		blockLen = 1
	}
	if cap(r.block) < len(rec.Leads) {
		r.block = make([][]float64, len(rec.Leads))
	}
	r.block = r.block[:len(rec.Leads)]
	for at := 0; at < rec.Len(); at += blockLen {
		end := at + blockLen
		if end > rec.Len() {
			end = rec.Len()
		}
		for li := range rec.Leads {
			r.block[li] = rec.Leads[li][at:end]
		}
		evs, err := r.stream.PushBlock(r.block)
		if err != nil {
			return err
		}
		if err := consume(evs); err != nil {
			return err
		}
	}
	evs, err := r.stream.Flush()
	if err != nil {
		return err
	}
	if err := consume(evs); err != nil {
		return err
	}

	// Close the radio hop, score the remote reconstruction.
	recovered := nodeBeats
	var packets, delivered, lost int
	var radioJ, idealJ float64
	delivery := 1.0
	if lk != nil {
		if err := lk.Close(); err != nil {
			return err
		}
		report := lk.Report()
		packets, delivered, lost = report.Packets, report.Delivered, report.Lost
		delivery = report.DeliveryRatio()
		radioJ, idealJ = report.EnergyJ, report.IdealEnergyJ
		for _, lead := range r.rx.Signal() {
			hashFloats(digest, lead)
		}
		recovered, err = r.rx.Delineate()
		if err != nil {
			return err
		}
		warm.capture(p, r.rx)
	}
	for _, b := range recovered {
		hashBeat(digest, b)
	}
	var tp, fp, fn int
	if len(rec.Beats) > 0 {
		rep := delineation.Evaluate(rec, recovered, delineation.DefaultTolerances())
		tp, fp, fn = rep.R.TP, rep.R.FP, rep.R.FN
	}

	st.Digest = digest.Sum64()
	st.Events += uint32(events)
	st.Packets += uint32(packets)
	st.Delivered += uint32(delivered)
	st.Lost += uint32(lost)
	st.Beats += uint32(len(recovered))
	st.TP += uint32(tp)
	st.FP += uint32(fp)
	st.FN += uint32(fn)
	st.RadioEnergyJ += radioJ
	st.IdealEnergyJ += idealJ
	st.Rounds++

	if fb != nil {
		se, ppv := int64(-1), int64(-1)
		if tp+fn > 0 {
			se = int64(float64(tp)/float64(tp+fn)*1000 + 0.5)
		}
		if tp+fp > 0 {
			ppv = int64(float64(tp)/float64(tp+fp)*1000 + 0.5)
		}
		// PRD (percent RMS difference, the CS literature's distortion
		// metric) is derived here — a pure read of the already-final
		// reconstruction — so the digest path never changes.
		prd := int64(-1)
		if lk != nil {
			if v := prdPercent(rec.Leads, r.rx.Signal()); !math.IsNaN(v) {
				prd = int64(v*100 + 0.5)
			}
		}
		fb.RecordPatient(uint64(events), radioJ, int64(delivery*1000+0.5), se, ppv, prd, int64(radioJ*1e6))
	}
	return nil
}

// prdPercent computes the percent RMS difference between the original
// and reconstructed multi-lead signals over their overlapping span.
func prdPercent(orig, recon [][]float64) float64 {
	var num, den float64
	for li := range orig {
		if li >= len(recon) {
			break
		}
		n := len(orig[li])
		if len(recon[li]) < n {
			n = len(recon[li])
		}
		for i := 0; i < n; i++ {
			d := orig[li][i] - recon[li][i]
			num += d * d
			den += orig[li][i] * orig[li][i]
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return 100 * math.Sqrt(num/den)
}
