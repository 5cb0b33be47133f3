// Package core assembles the substrates into the paper's system: a
// wireless body sensor node that acquires multi-lead ECG, conditions it,
// and — depending on the application — streams it raw, compresses it
// with CS, delineates it, classifies heartbeats or raises atrial-
// fibrillation alarms. Each step up this ladder (Figure 1 of the paper)
// raises the abstraction level of the transmitted data and cuts the
// radio bandwidth, which is what extends the battery life of the node.
//
// The Node type is the library's main entry point; see examples/ for
// runnable scenarios.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"wbsn/internal/af"
	"wbsn/internal/classify"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/graph"
	"wbsn/internal/link"
	"wbsn/internal/morpho"
	"wbsn/internal/telemetry"
	"wbsn/internal/wavelet"
)

// Errors returned by the node.
var (
	ErrConfig       = errors.New("core: invalid node configuration")
	ErrNoClassifier = errors.New("core: classification mode requires a trained classifier")
)

// Mode selects the node's application — one rung of the Figure 1 ladder.
type Mode int

// Operating modes, in increasing order of on-node abstraction.
const (
	// ModeRawStreaming transmits every raw sample (the unsustainable
	// baseline of Section I).
	ModeRawStreaming Mode = iota
	// ModeCS transmits compressed-sensing measurements (Section III.A).
	ModeCS
	// ModeDelineation transmits per-beat fiducial points (Section III.C).
	ModeDelineation
	// ModeClassification transmits per-beat class labels (Section III.D).
	ModeClassification
	// ModeAFAlarm transmits only AF episode alarms (Section V).
	ModeAFAlarm
)

// String returns the mode's display name.
func (m Mode) String() string {
	switch m {
	case ModeRawStreaming:
		return "raw-streaming"
	case ModeCS:
		return "compressed-sensing"
	case ModeDelineation:
		return "delineation"
	case ModeClassification:
		return "classification"
	case ModeAFAlarm:
		return "af-alarm"
	default:
		return "unknown"
	}
}

// Config parameterises a Node.
type Config struct {
	// Mode selects the application.
	Mode Mode
	// Fs is the sampling rate in Hz (default 256).
	Fs float64
	// Leads is the lead count (default 3).
	Leads int
	// CSWindow is the compression window length (default 512).
	CSWindow int
	// CSRatio is the compression ratio in percent (default 65.9, the
	// paper's single-lead good-quality operating point).
	CSRatio float64
	// Classifier is required in ModeClassification.
	Classifier *classify.Classifier
	// Seed drives sensing-matrix generation.
	Seed int64
	// GateLeads enables per-lead signal-quality gating in the analysis
	// modes: leads whose SQI falls below link.MinLeadSQI (lead-off,
	// saturation, heavy artifacts) are excluded from lead combination,
	// so the node degrades from 3-lead to fewer-lead operation instead
	// of delineating a corrupted composite.
	GateLeads bool
}

func (c Config) withDefaults() Config {
	out := c
	if out.Fs <= 0 {
		out.Fs = 256
	}
	if out.Leads <= 0 {
		out.Leads = 3
	}
	if out.CSWindow <= 0 {
		out.CSWindow = 512
	}
	if out.CSRatio <= 0 {
		out.CSRatio = 65.9
	}
	return out
}

// validate rejects configuration fields that would otherwise propagate
// silently into the DSP chain: NaN or infinite rates poison every
// filter coefficient downstream, and negative values would be masked
// by the zero-means-default convention. Zero stays "use the default";
// anything negative or non-finite fails fast.
func (c Config) validate() error {
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%w: %s must be finite and non-negative, got %v", ErrConfig, name, v)
		}
		return nil
	}
	if err := finite("Fs", c.Fs); err != nil {
		return err
	}
	if err := finite("CSRatio", c.CSRatio); err != nil {
		return err
	}
	if c.CSRatio >= 100 {
		return fmt.Errorf("%w: CSRatio %v leaves no measurements (must be < 100)", ErrConfig, c.CSRatio)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Leads", c.Leads}, {"CSWindow", c.CSWindow},
	} {
		if f.v < 0 {
			return fmt.Errorf("%w: %s must be non-negative, got %d", ErrConfig, f.name, f.v)
		}
	}
	return nil
}

// Node is one configured wireless body sensor node.
type Node struct {
	cfg     Config
	enc     *cs.Encoder
	del     *delineation.WaveletDelineator
	energy  energy.NodeModel
	beatWin classify.BeatWindow
	// plan is the node's per-chunk pipeline compiled into a fused,
	// arena-planned execution plan. It is immutable and shared: every
	// Stream (and every pooled fleet rig) of this node runs it through
	// its own graph.Exec.
	plan *graph.Plan
}

// NewNode validates the configuration and builds the processing chain.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	if c.Mode < ModeRawStreaming || c.Mode > ModeAFAlarm {
		return nil, ErrConfig
	}
	if c.Mode == ModeClassification && c.Classifier == nil {
		return nil, ErrNoClassifier
	}
	n := &Node{cfg: c, energy: energy.DefaultNode(), beatWin: classify.DefaultBeatWindow(c.Fs)}
	if c.Mode == ModeCS {
		m := cs.MeasurementsForCR(c.CSWindow, c.CSRatio)
		phi, err := cs.NewSparseBinary(m, c.CSWindow, min(cs.Density, m), rand.New(rand.NewSource(c.Seed)))
		if err != nil {
			return nil, err
		}
		n.enc = cs.NewEncoder(phi)
	}
	if c.Mode >= ModeDelineation {
		dcfg := delineation.Config{Fs: c.Fs}
		if c.Mode == ModeAFAlarm {
			// The conditioning filter smooths fibrillatory f-waves into
			// P-like bumps; a stricter P acceptance threshold keeps the
			// P-absence evidence discriminative.
			dcfg.MinWaveAmp = 0.10
		}
		del, err := delineation.NewWaveletDelineator(dcfg)
		if err != nil {
			return nil, err
		}
		n.del = del
	}
	plan, err := n.buildPlan()
	if err != nil {
		return nil, err
	}
	n.plan = plan
	return n, nil
}

// buildPlan assembles the node's per-chunk pipeline as a typed graph and
// compiles it: one plan per configuration, shared by every stream. The
// stage-lap tags declared here are the single clock reading taken per
// boundary (DESIGN §10); in particular the fused filter+combine stage
// carries one StageFilter tag, so lead combination folds into the filter
// lap instead of double-timing the boundary.
func (n *Node) buildPlan() (*graph.Plan, error) {
	c := n.cfg
	b := graph.NewBuilder()
	switch c.Mode {
	case ModeRawStreaming:
		b.Packetize(b.Input(c.Leads, c.CSWindow))
	case ModeCS:
		v := b.CSEncode(b.Input(c.Leads, c.CSWindow), n.enc)
		v = b.Packetize(v)
		b.Lap(v, telemetry.StageCS)
	default:
		// Analysis chunk: 4 s with 1 s overlap (the stream's hop) keeps
		// every beat fully inside at least one chunk.
		v := b.Input(c.Leads, int(4*c.Fs))
		if c.GateLeads {
			v = b.GateLeads(v, c.Fs)
		}
		v = b.MorphFilter(v, morpho.FilterConfig{Fs: c.Fs})
		b.Lap(v, telemetry.StageFilter)
		series := b.CombineRMS(v)
		w := b.Atrous(series, wavelet.AtrousScales)
		beats := b.Delineate(w, n.del)
		b.Lap(beats, telemetry.StageDelineate)
		if c.Mode == ModeClassification {
			cv := b.Classify(series, c.Classifier, n.beatWin)
			b.Lap(cv, telemetry.StageClassify)
		}
	}
	return b.Build()
}

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Plan returns the node's compiled execution plan (immutable, shared by
// all of the node's streams).
func (n *Node) Plan() *graph.Plan { return n.plan }

// BeatOutput is one transmitted beat event.
type BeatOutput struct {
	Fiducials delineation.BeatFiducials
	// Label is the predicted class in ModeClassification (-1 otherwise).
	Label int
	// Membership is the classifier confidence.
	Membership float64
}

// Result is the outcome of processing one record.
type Result struct {
	Mode Mode
	// DurationS is the processed signal duration.
	DurationS float64
	// TxBytes is the total transmitted payload.
	TxBytes int
	// TxBytesPerSecond is the resulting radio bandwidth.
	TxBytesPerSecond float64
	// Beats holds the delineated beats (analysis modes).
	Beats []BeatOutput
	// AFDecisions holds the windowed AF verdicts (ModeAFAlarm).
	AFDecisions []af.Decision
	// AFAlarm reports whether the record triggered an AF alarm.
	AFAlarm bool
	// Energy is the per-record node energy estimate.
	Energy energy.Breakdown
	// EnergyAvgPowerW is the average node power over the record.
	EnergyAvgPowerW float64
	// BatteryLifetimeH extrapolates the battery lifetime at this power.
	BatteryLifetimeH float64
}

// Process runs the node's stream over a full record and prices what it
// emits: a radio frame per packet, one burst for beat and AF payloads.
func (n *Node) Process(rec *ecg.Record) (*Result, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	s, err := n.NewStream()
	if err != nil {
		return nil, err
	}
	events, err := s.PushBlock(rec.Leads)
	if err != nil {
		return nil, err
	}
	tail, err := s.Flush()
	if err != nil {
		return nil, err
	}
	res := &Result{Mode: n.cfg.Mode, DurationS: rec.Duration()}
	samples := rec.Len() * len(rec.Leads)
	compOps := 0
	var radioJ float64
	for _, e := range append(events, tail...) {
		switch e.Kind {
		case EventPacket:
			res.TxBytes += e.Bytes
			frame := e.Bytes
			if leads := len(e.Measurements); leads > 0 {
				frame = link.FrameBytes(leads, len(e.Measurements[0]))
				compOps += n.enc.Matrix().(*cs.SparseBinary).AddsPerWindow() * leads
			}
			radioJ += n.energy.Radio.TxEnergyJ(frame)
		case EventBeat:
			res.Beats = append(res.Beats, e.Beat)
			if e.Beat.Label >= 0 {
				compOps += n.cfg.Classifier.RP().AddsPerProjection() + 400
			}
		case EventAF:
			res.AFDecisions = append(res.AFDecisions, e.AF)
		}
	}
	if n.cfg.Mode >= ModeDelineation {
		// Per sample: wedge filter stages, lead combination, à-trous
		// bank and threshold logic, and the gate's mean/RMS/peak passes.
		compOps += samples*24 + rec.Len()*(len(rec.Leads)+2) + rec.Len()*30
		if n.cfg.GateLeads && len(rec.Leads) >= 2 {
			compOps += samples * 3
		}
		switch n.cfg.Mode {
		case ModeDelineation:
			// 9 fiducials at 2 bytes each, plus a 2-byte beat header.
			res.TxBytes = len(res.Beats) * (9*2 + 2)
		case ModeClassification:
			// Label byte + 3-byte R-peak offset per beat.
			res.TxBytes = len(res.Beats) * 4
		case ModeAFAlarm:
			res.AFAlarm = af.RecordVerdict(res.AFDecisions, 0.5)
			// One status byte per decision window; alarms piggy-back.
			res.TxBytes = len(res.AFDecisions)
		}
		radioJ = n.energy.Radio.TxEnergyJ(res.TxBytes)
	}
	res.Energy = energy.Breakdown{
		Label:   n.cfg.Mode.String(),
		RadioJ:  radioJ,
		SampleJ: n.energy.ADC.SamplingEnergyJ(samples),
		CompJ:   n.energy.CPU.ComputeEnergyJ(compOps),
		OSJ:     n.energy.OS.EnergyPerWindowJ * res.DurationS,
	}
	if res.DurationS > 0 {
		res.TxBytesPerSecond = float64(res.TxBytes) / res.DurationS
		res.EnergyAvgPowerW = res.Energy.TotalJ() / res.DurationS
		res.BatteryLifetimeH = energy.DefaultBattery().LifetimeHours(res.EnergyAvgPowerW)
	}
	return res, nil
}

// TrainClassifier builds a heartbeat classifier from labelled records —
// the off-line training stage whose product is deployed on the node
// (ref [14] trains on MIT-BIH and ports the network to the WBSN).
// Training beats pass through the same conditioning the node applies at
// inference time (morphological filtering and RMS lead combination), so
// the deployed prototypes match the on-node feature distribution.
func TrainClassifier(records []*ecg.Record, fs float64, seed int64) (*classify.Classifier, error) {
	w := classify.DefaultBeatWindow(fs)
	rp, err := classify.NewRPMatrix(16, w.Len(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: fs})
	if err != nil {
		return nil, err
	}
	byClass := make(map[int][][]float64)
	for _, rec := range records {
		filtered, err := morpho.FilterLeads(rec.Leads, morpho.FilterConfig{Fs: fs})
		if err != nil {
			return nil, err
		}
		combined := dsp.CombineRMS(filtered)
		// Train on beats anchored at *detected* R peaks (labelled by the
		// nearest ground-truth beat): random projections are not
		// shift-invariant, so the training anchors must match the
		// inference-time detector's alignment.
		detected, err := del.Delineate(combined)
		if err != nil {
			return nil, err
		}
		for _, db := range detected {
			label, ok := nearestLabel(rec, db.R, int(0.06*fs))
			if !ok {
				continue
			}
			beat := w.Extract(combined, db.R)
			if beat == nil {
				continue
			}
			z, err := rp.Project(beat)
			if err != nil {
				return nil, err
			}
			byClass[label] = append(byClass[label], z)
		}
	}
	cl, err := classify.Train(rp, byClass, classify.TrainConfig{PrototypesPerClass: 4, Seed: seed})
	if err != nil {
		return nil, err
	}
	cl.UseLinExp = true // the embedded kernel path
	return cl, nil
}

// nearestLabel returns the label of the ground-truth beat closest to
// sample r, if one lies within tol samples.
func nearestLabel(rec *ecg.Record, r, tol int) (int, bool) {
	best, bestD := -1, tol+1
	for _, b := range rec.Beats {
		d := b.Fid.RPeak - r
		if d < 0 {
			d = -d
		}
		if d < bestD {
			bestD = d
			best = int(b.Label)
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
