// Package gateway implements the receiver side of the paper's
// architecture: the WBSN coordinator (a smartphone or base station,
// ref [5] demonstrates "a real-time CS decoder running on an iPhone")
// that collects the node's compressed packets, reconstructs the signal
// and performs the heavyweight analysis the node offloaded — closing the
// compress → transmit → reconstruct → diagnose loop end to end.
//
// The gateway shares the sensing-matrix seed with the node (matrices are
// pseudo-random, so only the seed travels); measurements arrive through
// core.Stream packet events or any transport that preserves the window
// order.
package gateway

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/telemetry/trace"
)

// ErrGateway is returned for configuration or packet-consistency errors.
var ErrGateway = errors.New("gateway: invalid configuration or packet")

// ErrEngineClosed is returned by the Engine's Submit and DecodeWindows
// after Close: the worker pool is gone, so the caller must either fail
// the stream or route the decode inline. It is distinct from ErrGateway
// so lifecycle races (submitting to a draining engine) are
// distinguishable from malformed packets.
var ErrEngineClosed = errors.New("gateway: engine closed")

// Config parameterises the receiver. It must mirror the node's CS
// configuration (window, ratio, seed, lead count); the sensing matrix's
// column density is cs.Density on both sides.
type Config struct {
	// Fs is the sampling rate in Hz.
	Fs float64
	// Leads is the lead count.
	Leads int
	// CSWindow, CSRatio, Seed mirror the node's encoder.
	CSWindow int
	CSRatio  float64
	Seed     int64
	// WarmStart carries each window's wavelet coefficients into the next
	// window's solve (per-lead, per-receiver). Combined with Solver.Tol
	// it converts inter-window correlation into skipped iterations; the
	// warm state is dropped on Reset and on lost windows so a stale seed
	// never crosses a stream boundary or an ARQ gap. Off by default —
	// the cold fixed-budget path stays bit-identical to earlier
	// revisions.
	WarmStart bool
	// Solver tunes the reconstruction (defaults: 150 iterations, 1
	// reweighting pass — the real-time receiver budget of ref [5]).
	// Setting Solver.Tol > 0 additionally enables the convergence-aware
	// early exit and adaptive restart inside the solver.
	Solver cs.SolverConfig
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
	if out.Solver.Iters <= 0 {
		out.Solver.Iters = 150
	}
	if out.Solver.Reweights == 0 {
		out.Solver.Reweights = 1
	}
	return out
}

// decoderKey identifies one immutable decoder build: the sensing-matrix
// geometry and seed plus the full solver configuration. SolverConfig
// holds three scalars, so the key is usable as a map key directly.
type decoderKey struct {
	window int
	ratio  float64
	seed   int64
	solver cs.SolverConfig
}

// decoderCache shares the expensive immutable decoder state — flat CSR
// index walk, Lipschitz step, penalty weights, synthesis tables —
// between every receiver/engine built from an identical configuration.
// Matrix regeneration and solver derivation dominate rig construction
// (fleet shards and engine workers rebuild the same decoder dozens of
// times), while Clone only allocates fresh scratch pools. Decoders are
// immutable after construction, so sharing one base across goroutines
// is safe.
var decoderCache struct {
	sync.Mutex
	m map[decoderKey]*cs.Decoder
}

// decoderCacheCap bounds the cache; distinct configurations beyond the
// cap (test suites sweep seeds and solver settings) reset it rather
// than grow it without bound.
const decoderCacheCap = 32

// buildDecoder regenerates the sensing matrix from the shared seed
// exactly as the node's encoder drew it and derives the solver, reusing
// the cached derived state when an identical configuration was built
// before. It returns a private clone plus the per-lead measurement
// count. c must already have defaults applied.
func (c Config) buildDecoder() (*cs.Decoder, int, error) {
	m := cs.MeasurementsForCR(c.CSWindow, c.CSRatio)
	key := decoderKey{window: c.CSWindow, ratio: c.CSRatio, seed: c.Seed, solver: c.Solver}
	decoderCache.Lock()
	base := decoderCache.m[key]
	decoderCache.Unlock()
	if base != nil {
		return base.Clone(), m, nil
	}
	phi, err := cs.NewSparseBinary(m, c.CSWindow, min(cs.Density, m), rand.New(rand.NewSource(c.Seed)))
	if err != nil {
		return nil, 0, err
	}
	dec, err := cs.NewDecoder(phi, c.Solver)
	if err != nil {
		return nil, 0, err
	}
	decoderCache.Lock()
	if decoderCache.m == nil || len(decoderCache.m) >= decoderCacheCap {
		decoderCache.m = make(map[decoderKey]*cs.Decoder)
	}
	decoderCache.m[key] = dec
	decoderCache.Unlock()
	return dec.Clone(), m, nil
}

// MatchNode builds a gateway Config mirroring a node configuration.
func MatchNode(n core.Config) Config {
	return Config{
		Fs:       n.Fs,
		Leads:    n.Leads,
		CSWindow: n.CSWindow,
		CSRatio:  n.CSRatio,
		Seed:     n.Seed,
	}
}

// Receiver reconstructs the node's compressed stream.
type Receiver struct {
	cfg Config
	dec *cs.Decoder
	// m is the per-lead measurement count the configured encoder emits;
	// packets that disagree are rejected rather than decoded into
	// garbage.
	m int
	// signal accumulates the reconstructed leads.
	signal [][]float64
	del    *delineation.WaveletDelineator
	// engine, when attached, decodes windows on a worker pool instead
	// of inline; results are appended in packet order either way.
	engine *Engine
	// ws carries the previous window's coefficients when WarmStart is
	// on; nil otherwise. One receiver = one stream, so the state never
	// mixes patients.
	ws *cs.WarmState
	// trRing, when set, receives the gateway-side spans of traced
	// windows; curTID is the trace ID of the packet currently being
	// consumed (zero between packets).
	trRing *trace.Ring
	curTID trace.ID
}

// NewReceiver builds the receiver; the sensing matrix is regenerated
// from the shared seed exactly as the node's encoder drew it.
func NewReceiver(cfg Config) (*Receiver, error) {
	c := cfg.withDefaults()
	dec, m, err := c.buildDecoder()
	if err != nil {
		return nil, err
	}
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: c.Fs})
	if err != nil {
		return nil, err
	}
	r := &Receiver{cfg: c, dec: dec, m: m, del: del}
	if c.WarmStart {
		r.ws = cs.NewWarmState()
	}
	r.signal = make([][]float64, c.Leads)
	return r, nil
}

// SetTrace attaches (or detaches, with nil) the window-trace ring this
// receiver records its gateway-side spans into. Observation only: the
// reconstructed signal is bit-identical either way.
func (r *Receiver) SetTrace(tr *trace.Ring) {
	r.trRing = tr
	r.curTID = 0
}

// resetWarm invalidates the carried coefficients (stream boundary or
// lost window) and counts the reset in the attached engine's metrics.
func (r *Receiver) resetWarm() {
	if r.ws == nil {
		return
	}
	r.ws.Reset()
	if r.engine != nil {
		if tm := r.engine.tel; tm != nil {
			tm.Solver.RecordReset()
		}
	}
}

// WarmState exposes the receiver's warm-start state (nil when WarmStart
// is off) so a fleet scheduler can tier it: snapshot the coefficients
// when the patient leaves this rig, rehydrate them when it returns.
// Callers must only touch the state between packets — it is owned by
// the decode path while a window is in flight.
func (r *Receiver) WarmState() *cs.WarmState { return r.ws }

// ConsumePacket reconstructs one window from the node's measurement
// packet and appends it to the receiver-side signal. The packet must
// match the configured encoder exactly — one vector per lead, each of
// the encoder's measurement length — otherwise it returns ErrGateway
// instead of decoding a malformed window into the signal.
func (r *Receiver) ConsumePacket(measurements [][]float64) error {
	r.curTID = 0
	return r.consume(measurements)
}

// ConsumePacketTraced is ConsumePacket for a window carrying a trace
// ID (it satisfies link.TracedSink structurally): the decode and
// ordered-delivery spans are recorded under tid, completing the
// window's span tree. encodeNs > 0 is a wire-reported node-side encode
// duration from a remote clock; it is re-anchored to this side's clock
// (span start = now − duration — the duration is the measurement, the
// start only aligns the tree). Pass 0 when the node records into the
// same ring in-process.
func (r *Receiver) ConsumePacketTraced(measurements [][]float64, tid trace.ID, encodeNs int64) error {
	r.curTID = tid
	if r.trRing != nil && tid != 0 && encodeNs > 0 {
		now := time.Now().UnixNano()
		r.trRing.Record(tid, trace.KindEncode, now-encodeNs, encodeNs)
	}
	err := r.consume(measurements)
	r.curTID = 0
	return err
}

// consume is the shared packet path: shape check, decode, in-order
// append.
func (r *Receiver) consume(measurements [][]float64) error {
	if len(measurements) != r.cfg.Leads {
		return ErrGateway
	}
	for _, lead := range measurements {
		if len(lead) != r.m {
			return ErrGateway
		}
	}
	xs, err := r.decodeOne(measurements)
	if err != nil {
		return err
	}
	r.appendWindow(xs)
	return nil
}

// decodeOne reconstructs a single window through whichever path is
// active, threading the warm state and trace context (the engine path
// also records convergence stats into the engine's metrics).
func (r *Receiver) decodeOne(measurements [][]float64) ([][]float64, error) {
	if r.engine != nil {
		// A nil WarmState runs the identical cold compute, so one traced
		// submit path covers warm and plain receivers alike.
		j, err := r.engine.SubmitCtx(measurements, r.ws, r.curTID, r.trRing)
		if err != nil {
			return nil, err
		}
		return j.Wait()
	}
	traced := r.trRing != nil && r.curTID != 0
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	xs, st, err := r.dec.ReconstructJointWarm(measurements, r.ws)
	if err != nil {
		return nil, err
	}
	if traced {
		// Inline decode has no queue: the tree holds decode + deliver on
		// the gateway side (batch size 1 by construction).
		r.trRing.RecordDecode(r.curTID, t0.UnixNano(), int64(time.Since(t0)), st.Iters, 1)
	}
	return xs, nil
}

func (r *Receiver) appendWindow(xs [][]float64) {
	traced := r.trRing != nil && r.curTID != 0
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	for li := range xs {
		r.signal[li] = append(r.signal[li], xs[li]...)
	}
	if traced {
		// Ordered delivery completes the window: this record publishes
		// the finished tree to the collector's exemplar stores.
		r.trRing.Record(r.curTID, trace.KindDeliver, t0.UnixNano(), int64(time.Since(t0)))
		r.curTID = 0
	}
}

// AttachEngine routes this receiver's reconstructions through a worker
// pool. The engine must mirror the receiver's configuration (lead count
// and measurement length) so the decoded output is bit identical to the
// inline path.
func (r *Receiver) AttachEngine(e *Engine) error {
	if e == nil {
		r.engine = nil
		return nil
	}
	if e.cfg.Leads != r.cfg.Leads || e.m != r.m {
		return ErrGateway
	}
	r.engine = e
	return nil
}

// Reset discards the accumulated signal and any carried warm-start
// coefficients while keeping the decoder (and any attached engine), so
// one receiver can replay many records without one record's solver
// state leaking into the next.
func (r *Receiver) Reset() {
	for li := range r.signal {
		r.signal[li] = r.signal[li][:0]
	}
	r.curTID = 0
	r.resetWarm()
}

// ConsumeEvents feeds every CS packet among the node's stream events to
// the receiver in order, ignoring other event kinds. A packet's trace
// ID routes its spans into the receiver's trace ring (the node records
// encode into the same collector in-process, so no wire-reported
// duration is needed); a zero ID is the untraced path.
func (r *Receiver) ConsumeEvents(events []core.Event) error {
	for _, e := range events {
		if e.Kind != core.EventPacket || e.Measurements == nil {
			continue
		}
		if err := r.ConsumePacketTraced(e.Measurements, e.Trace, 0); err != nil {
			return err
		}
	}
	return nil
}

// Signal returns the reconstructed leads accumulated so far.
func (r *Receiver) Signal() [][]float64 { return r.signal }

// SamplesReceived returns the per-lead reconstructed length.
func (r *Receiver) SamplesReceived() int {
	if len(r.signal) == 0 {
		return 0
	}
	return len(r.signal[0])
}

// Delineate runs the receiver-side delineator over the reconstructed
// RMS-combined signal — the remote analysis the node's compression must
// preserve.
func (r *Receiver) Delineate() ([]delineation.BeatFiducials, error) {
	if r.SamplesReceived() == 0 {
		return nil, nil
	}
	return r.del.Delineate(dsp.CombineRMS(r.signal))
}

// ConsumeLostPacket records a window the radio failed to deliver: the
// reconstructed signal is padded with zeros so downstream indices stay
// aligned, and any warm-start coefficients are dropped — the carried θ
// described the window before the gap, so seeding the post-gap window
// with it would poison the solve. Remote analysis degrades gracefully —
// beats inside the lost window are missed, neighbours are unaffected.
func (r *Receiver) ConsumeLostPacket() {
	for li := range r.signal {
		r.signal[li] = append(r.signal[li], make([]float64, r.cfg.CSWindow)...)
	}
	r.resetWarm()
}
