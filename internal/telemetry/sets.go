package telemetry

import (
	"fmt"
	"sync"

	"wbsn/internal/telemetry/trace"
)

// StageSet bundles the per-stage latency histograms. Every pipeline
// layer records into the same StageSet, so one /metrics snapshot shows
// the full chain's latency profile.
type StageSet struct {
	hist [NumStages]*Histogram
}

// NewStageSet registers one latency histogram per pipeline stage
// (pipeline.stage.<name>.ns).
func NewStageSet(reg *Registry) *StageSet {
	ss := &StageSet{}
	for i := 0; i < NumStages; i++ {
		s := Stage(i)
		ss.hist[i] = reg.Histogram("pipeline.stage." + s.String() + ".ns")
	}
	return ss
}

// Record observes one stage execution's duration into the stage's
// histogram. Nil-safe and allocation-free.
func (ss *StageSet) Record(stage Stage, durNs int64) {
	if ss == nil {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	ss.hist[stage].Observe(uint64(durNs))
}

// Stage returns the latency histogram of one stage (for tests and
// summaries).
func (ss *StageSet) Stage(s Stage) *Histogram {
	if ss == nil {
		return nil
	}
	return ss.hist[s]
}

// NodeMetrics instruments core.Stream: per-stage timings are recorded
// through Stages; the counters advance per processed chunk so the
// per-sample Push path stays untouched.
type NodeMetrics struct {
	// Samples counts samples consumed by chunk processing; Chunks the
	// processed chunks; Events/Beats/Packets the emitted events by kind;
	// TxBytes the packetised payload bytes.
	Samples *Counter
	Chunks  *Counter
	Events  *Counter
	Beats   *Counter
	Packets *Counter
	TxBytes *Counter
	Stages  *StageSet
}

// NewNodeMetrics registers the node metric family (node.*).
func NewNodeMetrics(reg *Registry, stages *StageSet) *NodeMetrics {
	return &NodeMetrics{
		Samples: reg.Counter("node.samples"),
		Chunks:  reg.Counter("node.chunks"),
		Events:  reg.Counter("node.events"),
		Beats:   reg.Counter("node.beats"),
		Packets: reg.Counter("node.packets"),
		TxBytes: reg.Counter("node.tx_bytes"),
		Stages:  stages,
	}
}

// LinkMetrics instruments link.Link: ARQ outcome counters, the
// Gilbert–Elliott state occupancy of transmission attempts, and the
// radio energy ledger.
type LinkMetrics struct {
	Packets         *Counter
	Delivered       *Counter
	Lost            *Counter
	Attempts        *Counter
	Retransmissions *Counter
	AcksLost        *Counter
	// FramesGood/FramesBad count transmission attempts by the channel
	// state they saw — the Gilbert–Elliott occupancy.
	FramesGood *Counter
	FramesBad  *Counter
	// RadioEnergyJ accumulates the spent radio energy; PacketMicroJ is
	// the per-packet energy distribution (µJ, retransmissions included);
	// PacketAttempts the attempts-per-packet distribution.
	RadioEnergyJ   *FloatCounter
	PacketMicroJ   *Histogram
	PacketAttempts *Histogram
	Stages         *StageSet
}

// NewLinkMetrics registers the link metric family (link.*).
func NewLinkMetrics(reg *Registry, stages *StageSet) *LinkMetrics {
	return &LinkMetrics{
		Packets:         reg.Counter("link.packets"),
		Delivered:       reg.Counter("link.delivered"),
		Lost:            reg.Counter("link.lost"),
		Attempts:        reg.Counter("link.attempts"),
		Retransmissions: reg.Counter("link.retransmissions"),
		AcksLost:        reg.Counter("link.acks_lost"),
		FramesGood:      reg.Counter("link.frames.good_state"),
		FramesBad:       reg.Counter("link.frames.bad_state"),
		RadioEnergyJ:    reg.FloatCounter("link.radio.energy_j"),
		PacketMicroJ:    reg.Histogram("link.radio.packet_uj"),
		PacketAttempts:  reg.Histogram("link.packet.attempts"),
		Stages:          stages,
	}
}

// GatewayMetrics instruments gateway.Engine: queue depth (with high
// watermark), worker utilisation and decode latency.
type GatewayMetrics struct {
	Submitted    *Counter
	Decoded      *Counter
	DecodeErrors *Counter
	// QueueDepth is jobs submitted but not yet picked up; BusyWorkers
	// the workers currently decoding; Workers the pool size.
	QueueDepth  *Gauge
	BusyWorkers *Gauge
	Workers     *Gauge
	DecodeNs    *Histogram
	// BatchWindows is the windows-per-dispatch distribution of the
	// batch-forming worker path; BatchFillPct the same dispatch sizes as
	// a percentage of the configured batch capacity (100 = every slot
	// filled) — together they show how full opportunistic batches
	// actually run.
	BatchWindows *Histogram
	BatchFillPct *Histogram
	// Solver tracks the convergence behaviour of the decodes this
	// gateway runs (solver.*).
	Solver *SolverMetrics
	Stages *StageSet
}

// NewGatewayMetrics registers the gateway metric family (gateway.*).
func NewGatewayMetrics(reg *Registry, stages *StageSet) *GatewayMetrics {
	return &GatewayMetrics{
		Submitted:    reg.Counter("gateway.submitted"),
		Decoded:      reg.Counter("gateway.decoded"),
		DecodeErrors: reg.Counter("gateway.decode_errors"),
		QueueDepth:   reg.Gauge("gateway.queue.depth"),
		BusyWorkers:  reg.Gauge("gateway.workers.busy"),
		Workers:      reg.Gauge("gateway.workers.total"),
		DecodeNs:     reg.Histogram("gateway.decode.ns"),
		BatchWindows: reg.Histogram("gateway.batch.windows"),
		BatchFillPct: reg.Histogram("gateway.batch.fill_pct"),
		Solver:       NewSolverMetrics(reg),
		Stages:       stages,
	}
}

// SolverMetrics instruments the convergence-aware FISTA path: how many
// iterations reconstructions actually spend, how often the early exit
// and adaptive restarts fire, and how often a warm seed is used,
// dropped (reset) or rejected (cold fallback). Counters take plain
// scalars so this package stays dependency-free.
type SolverMetrics struct {
	// Solves counts reconstructions; WarmSolves the subset seeded from a
	// previous window; EarlyExits those that stopped before the
	// iteration budget; Restarts the adaptive momentum restarts summed
	// over all solves; ColdFallbacks warm solves that diverged and were
	// redone cold; WarmResets explicit warm-state invalidations (stream
	// reset or sequence gap).
	Solves        *Counter
	WarmSolves    *Counter
	EarlyExits    *Counter
	Restarts      *Counter
	ColdFallbacks *Counter
	WarmResets    *Counter
	// Iters is the iterations-to-converge distribution, one observation
	// per reconstruction.
	Iters *Histogram
}

// NewSolverMetrics registers the solver metric family (solver.*).
func NewSolverMetrics(reg *Registry) *SolverMetrics {
	return &SolverMetrics{
		Solves:        reg.Counter("solver.solves"),
		WarmSolves:    reg.Counter("solver.warm_solves"),
		EarlyExits:    reg.Counter("solver.early_exits"),
		Restarts:      reg.Counter("solver.restarts"),
		ColdFallbacks: reg.Counter("solver.cold_fallbacks"),
		WarmResets:    reg.Counter("solver.warm_resets"),
		Iters:         reg.Histogram("solver.iters"),
	}
}

// Record observes one reconstruction's convergence stats. Nil-safe and
// allocation-free.
func (s *SolverMetrics) Record(iters, restarts int, earlyExit, warm, coldFallback bool) {
	if s == nil {
		return
	}
	s.Solves.Inc()
	if iters >= 0 {
		s.Iters.Observe(uint64(iters))
	}
	if restarts > 0 {
		s.Restarts.Add(uint64(restarts))
	}
	if earlyExit {
		s.EarlyExits.Inc()
	}
	if warm {
		s.WarmSolves.Inc()
	}
	if coldFallback {
		s.ColdFallbacks.Inc()
	}
}

// RecordReset counts one warm-state invalidation. Nil-safe.
func (s *SolverMetrics) RecordReset() {
	if s == nil {
		return
	}
	s.WarmResets.Inc()
}

// NetGWMetrics instruments the networked gateway (internal/netgw):
// connection and session churn, the shed/corrupt/rewind counters of the
// backpressure protocol, per-session inbox pressure and the drain
// latency of a graceful shutdown.
type NetGWMetrics struct {
	// ConnsAccepted/ConnsClosed count transport connections;
	// ProtocolErrors counts connections dropped for framing or handshake
	// violations (bad magic, oversized frames, data before Hello).
	ConnsAccepted  *Counter
	ConnsClosed    *Counter
	ProtocolErrors *Counter
	// SessionsActive is the live session-actor count;
	// Started/Finished/Expired count session lifecycle edges and Panics
	// the actors that died to an isolated panic.
	SessionsActive   *Gauge
	SessionsStarted  *Counter
	SessionsFinished *Counter
	SessionsExpired  *Counter
	SessionPanics    *Counter
	// Resumes counts re-attaches of an existing session (reconnects);
	// FramesRx all data frames read off the wire; FramesCorrupt the ones
	// the link CRC rejected; FramesShed the ones dropped because a
	// session inbox was full; Rewinds the go-back-N acks those two, and
	// data frames beyond the reassembler's reorder window, triggered;
	// Delivered the windows handed to a receiver in order.
	Resumes       *Counter
	FramesRx      *Counter
	FramesCorrupt *Counter
	FramesShed    *Counter
	Rewinds       *Counter
	Delivered     *Counter
	// InboxDepth is the summed depth of all session inboxes — the
	// server-side backpressure gauge (High() is the watermark).
	InboxDepth *Gauge
	// DrainNs is the duration of the last graceful drain.
	DrainNs *Gauge
	// Attaches counts every connection→session attach (first attach plus
	// every resume); ResumeHits the resumes that found delivered windows
	// to skip (resume-on-reconnect actually saving work); Evictions the
	// sessions removed through the control plane; IdleCuts the
	// connections cut by the slowloris idle timeout.
	Attaches   *Counter
	ResumeHits *Counter
	Evictions  *Counter
	IdleCuts   *Counter
}

// NewNetGWMetrics registers the networked-gateway family (netgw.*).
func NewNetGWMetrics(reg *Registry) *NetGWMetrics {
	return &NetGWMetrics{
		ConnsAccepted:    reg.Counter("netgw.conns.accepted"),
		ConnsClosed:      reg.Counter("netgw.conns.closed"),
		ProtocolErrors:   reg.Counter("netgw.protocol_errors"),
		SessionsActive:   reg.Gauge("netgw.sessions.active"),
		SessionsStarted:  reg.Counter("netgw.sessions.started"),
		SessionsFinished: reg.Counter("netgw.sessions.finished"),
		SessionsExpired:  reg.Counter("netgw.sessions.expired"),
		SessionPanics:    reg.Counter("netgw.sessions.panics"),
		Resumes:          reg.Counter("netgw.resumes"),
		FramesRx:         reg.Counter("netgw.frames.rx"),
		FramesCorrupt:    reg.Counter("netgw.frames.corrupt"),
		FramesShed:       reg.Counter("netgw.frames.shed"),
		Rewinds:          reg.Counter("netgw.rewinds"),
		Delivered:        reg.Counter("netgw.windows.delivered"),
		InboxDepth:       reg.Gauge("netgw.inbox.depth"),
		DrainNs:          reg.Gauge("netgw.drain_ns"),
		Attaches:         reg.Counter("netgw.attaches"),
		ResumeHits:       reg.Counter("netgw.resume_hits"),
		Evictions:        reg.Counter("netgw.sessions.evicted"),
		IdleCuts:         reg.Counter("netgw.conns.idle_cuts"),
	}
}

// FleetMetrics instruments fleet.Cluster: population rollups plus lazy
// per-worker-slot patient counters.
type FleetMetrics struct {
	reg *Registry
	// PatientsDone counts completed patient simulations; the histograms
	// are per-patient rollups in scaled integer units (permille for the
	// ratios, PRD in hundredths of a percent, energy in µJ).
	PatientsDone     *Counter
	EventsTotal      *Counter
	DeliveryPermille *Histogram
	SePermille       *Histogram
	PPVPermille      *Histogram
	PRDCentiPct      *Histogram
	PatientMicroJ    *Histogram
	RadioEnergyJ     *FloatCounter
	// RTFMilli is the last run's real-time factor ×1000.
	RTFMilli *Gauge

	mu     sync.Mutex
	shards map[int]*Counter
}

// NewFleetMetrics registers the fleet metric family (fleet.*).
func NewFleetMetrics(reg *Registry) *FleetMetrics {
	return &FleetMetrics{
		reg:              reg,
		PatientsDone:     reg.Counter("fleet.patients.done"),
		EventsTotal:      reg.Counter("fleet.events"),
		DeliveryPermille: reg.Histogram("fleet.patient.delivery_permille"),
		SePermille:       reg.Histogram("fleet.patient.se_permille"),
		PPVPermille:      reg.Histogram("fleet.patient.ppv_permille"),
		PRDCentiPct:      reg.Histogram("fleet.patient.prd_centipct"),
		PatientMicroJ:    reg.Histogram("fleet.patient.radio_uj"),
		RadioEnergyJ:     reg.FloatCounter("fleet.radio.energy_j"),
		RTFMilli:         reg.Gauge("fleet.rtf_milli"),
	}
}

// FleetBatch is the bounded fan-in recorder for population-scale runs:
// one batch per shard worker accumulates the per-patient rollups
// locally and folds them into the shared FleetMetrics in one Flush per
// scheduling slice. At a million patients the per-patient atomic
// observes would serialize every worker through the same few
// cachelines; batching keeps recording worker-local while the flushed
// totals stay exactly equal to per-patient recording. Not safe for
// concurrent use — one batch per worker.
type FleetBatch struct {
	fm       *FleetMetrics
	shard    *Counter
	patients uint64
	events   uint64
	radioJ   float64
	delivery *HistogramBatch
	se       *HistogramBatch
	ppv      *HistogramBatch
	prd      *HistogramBatch
	microJ   *HistogramBatch
}

// NewBatch returns a local rollup batch for one shard worker. Nil-safe:
// a nil FleetMetrics yields a nil batch whose methods are no-ops.
func (f *FleetMetrics) NewBatch(shard int) *FleetBatch {
	if f == nil {
		return nil
	}
	return &FleetBatch{
		fm:       f,
		shard:    f.Shard(shard),
		delivery: f.DeliveryPermille.Batch(),
		se:       f.SePermille.Batch(),
		ppv:      f.PPVPermille.Batch(),
		prd:      f.PRDCentiPct.Batch(),
		microJ:   f.PatientMicroJ.Batch(),
	}
}

// RecordPatient accumulates one completed patient session. The ratio
// arguments are pre-scaled integers (permille / centi-percent / µJ)
// with negative values meaning "not applicable" (NaN score, no radio
// hop).
func (b *FleetBatch) RecordPatient(events uint64, radioJ float64, deliveryPermille, sePermille, ppvPermille, prdCentiPct, microJ int64) {
	if b == nil {
		return
	}
	b.patients++
	b.events += events
	b.radioJ += radioJ
	if deliveryPermille >= 0 {
		b.delivery.Observe(uint64(deliveryPermille))
	}
	if sePermille >= 0 {
		b.se.Observe(uint64(sePermille))
	}
	if ppvPermille >= 0 {
		b.ppv.Observe(uint64(ppvPermille))
	}
	if prdCentiPct >= 0 {
		b.prd.Observe(uint64(prdCentiPct))
	}
	if microJ >= 0 {
		b.microJ.Observe(uint64(microJ))
	}
}

// Flush folds the batch into the shared fleet metrics and clears it for
// reuse.
func (b *FleetBatch) Flush() {
	if b == nil || b.patients == 0 {
		return
	}
	b.fm.PatientsDone.Add(b.patients)
	b.fm.EventsTotal.Add(b.events)
	b.shard.Add(b.patients)
	if b.radioJ != 0 {
		b.fm.RadioEnergyJ.Add(b.radioJ)
	}
	b.delivery.Flush()
	b.se.Flush()
	b.ppv.Flush()
	b.prd.Flush()
	b.microJ.Flush()
	b.patients, b.events, b.radioJ = 0, 0, 0
}

// Shard returns shard i's completed-patients counter
// (fleet.shard.<i>.patients), creating it on first use. Cold path: one
// lookup per patient.
func (f *FleetMetrics) Shard(i int) *Counter {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shards == nil {
		f.shards = make(map[int]*Counter)
	}
	c, ok := f.shards[i]
	if !ok {
		c = f.reg.Counter(fmt.Sprintf("fleet.shard.%02d.patients", i))
		f.shards[i] = c
	}
	return c
}

// Set bundles one registry with every layer's metric family — the
// one-stop wiring object callers hand to fleet.Config.Telemetry or
// attach layer by layer.
type Set struct {
	Registry *Registry
	Stages   *StageSet
	Node     *NodeMetrics
	Link     *LinkMetrics
	Gateway  *GatewayMetrics
	// Solver aliases Gateway.Solver — the convergence family lives with
	// the decoding side.
	Solver *SolverMetrics
	Fleet  *FleetMetrics
	NetGW  *NetGWMetrics
	// Runtime mirrors process health (heap residency, goroutines) into
	// /metrics; the gauges refresh on every snapshot.
	Runtime *RuntimeMetrics
	// Trace is the end-to-end window-trace collector (per-session span
	// rings plus the recent/slowest exemplar stores) served by /traces.
	Trace *trace.Collector
}

// Window-trace collector defaults: per-session in-flight ring, recent
// completed-window ring, and slowest-N exemplar reservoir.
const (
	traceWindowRing  = 256
	traceRecentTrees = 64
	traceSlowestN    = 8
)

// NewSet builds the full metric family over one registry.
func NewSet(reg *Registry) *Set {
	stages := NewStageSet(reg)
	gw := NewGatewayMetrics(reg, stages)
	return &Set{
		Registry: reg,
		Stages:   stages,
		Node:     NewNodeMetrics(reg, stages),
		Link:     NewLinkMetrics(reg, stages),
		Gateway:  gw,
		Solver:   gw.Solver,
		Fleet:    NewFleetMetrics(reg),
		NetGW:    NewNetGWMetrics(reg),
		Runtime:  NewRuntimeMetrics(reg),
		Trace:    trace.New(traceWindowRing, traceRecentTrees, traceSlowestN),
	}
}
