package link

import (
	"errors"
	"math/rand"
	"time"

	"wbsn/internal/energy"
	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

// ErrLink is returned for invalid link usage or configuration.
var ErrLink = errors.New("link: invalid link configuration")

// Sink is the receiver-side consumer of the reassembled packet stream.
// gateway.Receiver satisfies it: delivered windows are reconstructed,
// declared gaps are zero-filled so downstream indices stay aligned.
type Sink interface {
	ConsumePacket(measurements [][]float64) error
	ConsumeLostPacket()
}

// TracedSink is the optional trace-aware extension of Sink: when the
// sink implements it, windows carrying a trace ID are delivered through
// ConsumePacketTraced so the receiver can stitch its decode spans onto
// the window's tree. encodeNs > 0 carries a wire-reported node encode
// duration (zero when the node records into the same ring in-process).
type TracedSink interface {
	ConsumePacketTraced(measurements [][]float64, tid trace.ID, encodeNs int64) error
}

// ReassemblyStats counts the receiver-side stream repair work.
type ReassemblyStats struct {
	// Delivered counts packets handed to the sink in order.
	Delivered int
	// Duplicates counts discarded arrivals: every arrival below
	// NextSeq() (a window already delivered or zero-filled) and every
	// re-arrival of a window already buffered.
	Duplicates int
	// Filled counts gaps zero-filled via the sink's ConsumeLostPacket.
	Filled int
	// Buffered counts packets that arrived ahead of a missing one and
	// waited in the reorder buffer.
	Buffered int
}

// ReorderWindow bounds the reassembler's buffer of future packets:
// an arrival this many or more sequence numbers ahead of NextSeq()
// declares the intervening windows lost rather than waiting forever.
const ReorderWindow = 32

// Reassembler restores packet order for a Sink: in-order packets pass
// straight through, duplicates are discarded, out-of-order arrivals
// wait in a bounded buffer, and gaps — declared by the ARQ sender or
// implied by the buffer bound — are zero-filled so the reconstructed
// signal keeps its sample alignment.
type Reassembler struct {
	sink Sink
	// tsink is sink's TracedSink view when it has one (resolved once at
	// construction; the type assertion stays off the delivery path).
	tsink   TracedSink
	next    uint32
	pending map[uint32]Packet
	stats   ReassemblyStats
}

// NewReassembler builds a reassembler expecting sequence number 0
// first.
func NewReassembler(sink Sink) *Reassembler {
	ra := &Reassembler{sink: sink, pending: make(map[uint32]Packet)}
	ra.tsink, _ = sink.(TracedSink)
	return ra
}

// Stats returns the accumulated reassembly statistics.
func (ra *Reassembler) Stats() ReassemblyStats { return ra.stats }

// NextSeq returns the next sequence number the reassembler will
// deliver.
func (ra *Reassembler) NextSeq() uint32 { return ra.next }

// Offer hands the reassembler one decoded packet in arrival order.
func (ra *Reassembler) Offer(p Packet) error {
	if p.Seq < ra.next {
		ra.stats.Duplicates++
		return nil
	}
	if _, dup := ra.pending[p.Seq]; dup {
		ra.stats.Duplicates++
		return nil
	}
	if p.Seq == ra.next {
		if err := ra.deliver(p); err != nil {
			return err
		}
		return ra.drain()
	}
	ra.pending[p.Seq] = p
	ra.stats.Buffered++
	// A packet far ahead of the expected one means the missing windows
	// are not coming: declare them lost and catch up.
	if p.Seq-ra.next >= ReorderWindow {
		for ra.next < p.Seq-ReorderWindow/2 {
			if _, ok := ra.pending[ra.next]; !ok {
				ra.fill()
			}
			if err := ra.drain(); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeclareLost tells the reassembler the sender gave up on seq: if it is
// the next expected window it is zero-filled immediately, otherwise the
// declaration is a no-op (the gap logic catches it).
func (ra *Reassembler) DeclareLost(seq uint32) error {
	if seq != ra.next {
		return nil
	}
	ra.fill()
	return ra.drain()
}

// Flush zero-fills any remaining gaps so every buffered future packet
// is delivered (end of transmission).
func (ra *Reassembler) Flush() error {
	for len(ra.pending) > 0 {
		if _, ok := ra.pending[ra.next]; !ok {
			ra.fill()
		}
		if err := ra.drain(); err != nil {
			return err
		}
	}
	return nil
}

func (ra *Reassembler) deliver(p Packet) error {
	var err error
	if p.Trace != 0 && ra.tsink != nil {
		err = ra.tsink.ConsumePacketTraced(p.Measurements, p.Trace, p.EncodeNs)
	} else {
		err = ra.sink.ConsumePacket(p.Measurements)
	}
	if err != nil {
		return err
	}
	ra.stats.Delivered++
	ra.next++
	return nil
}

func (ra *Reassembler) fill() {
	ra.sink.ConsumeLostPacket()
	ra.stats.Filled++
	ra.next++
}

func (ra *Reassembler) drain() error {
	for {
		p, ok := ra.pending[ra.next]
		if !ok {
			return nil
		}
		delete(ra.pending, ra.next)
		if err := ra.deliver(p); err != nil {
			return err
		}
	}
}

// ARQConfig parameterises the stop-and-wait sender.
type ARQConfig struct {
	// MaxRetries is the number of retransmissions after the first
	// attempt before the window is declared lost (default 4).
	MaxRetries int
	// BackoffBaseS is the wait before the first retransmission
	// (default 2 ms); successive waits multiply by BackoffFactor
	// (default 2), the exponential backoff of contention MACs.
	BackoffBaseS  float64
	BackoffFactor float64
	// PAckLoss is the probability that a correctly received frame's
	// acknowledgement is lost on the reverse path — the sender
	// retransmits a window the receiver already has, producing the
	// duplicates the reassembler must absorb.
	PAckLoss float64
	// Radio prices every transmission attempt; the zero value uses
	// energy.DefaultRadio.
	Radio energy.RadioModel
	// Seed drives the ack-loss randomness.
	Seed int64
}

func (c ARQConfig) withDefaults() ARQConfig {
	out := c
	if out.MaxRetries <= 0 {
		out.MaxRetries = 4
	}
	if out.BackoffBaseS <= 0 {
		out.BackoffBaseS = 2e-3
	}
	if out.BackoffFactor <= 0 {
		out.BackoffFactor = 2
	}
	if out.Radio.BitrateBps == 0 {
		out.Radio = energy.DefaultRadio()
	}
	return out
}

// Report summarises one link session: delivery outcome, the radio
// energy actually spent (every retransmission charged), and the
// receiver-side repair statistics.
type Report struct {
	// Packets is the number of windows offered to the link.
	Packets int
	// Delivered counts windows acknowledged within the retry budget.
	Delivered int
	// Lost counts windows dropped after exhausting retries.
	Lost int
	// Attempts is the total number of transmission attempts.
	Attempts int
	// Retransmissions is Attempts minus first attempts.
	Retransmissions int
	// AcksLost counts deliveries whose acknowledgement was lost.
	AcksLost int
	// EnergyJ is the radio energy spent across all attempts.
	EnergyJ float64
	// IdealEnergyJ is the energy a lossless link would have spent (one
	// attempt per packet) — the retransmission overhead is
	// EnergyJ − IdealEnergyJ.
	IdealEnergyJ float64
	// BackoffS is the accumulated retransmission backoff latency.
	BackoffS float64
	// Reassembly and Channel expose the lower layers' counters.
	Reassembly ReassemblyStats
	Channel    ChannelStats
}

// DeliveryRatio returns Delivered/Packets (1 for an idle link).
func (r Report) DeliveryRatio() float64 {
	if r.Packets == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Packets)
}

// RetransmitEnergyJ returns the energy spent beyond the lossless
// baseline.
func (r Report) RetransmitEnergyJ() float64 { return r.EnergyJ - r.IdealEnergyJ }

// tidRingSize bounds the in-flight seq→trace-ID map; it must exceed
// the reassembler's ReorderWindow so any frame the channel can still
// release finds its ID.
const tidRingSize = 64

// tidEntry maps one in-flight sequence number to its trace identity.
type tidEntry struct {
	seq uint32
	id  trace.ID
}

// Link ties a sender-side ARQ, a Channel and a receiver-side
// Reassembler into one simulated radio hop.
type Link struct {
	cfg    ARQConfig
	ch     *Channel
	ra     *Reassembler
	rng    *rand.Rand
	seq    uint32
	report Report
	// tel, when set, mirrors the Report counters into the live metric
	// registry and prices every packet into the energy histograms. Pure
	// observation: attaching it never changes delivery behaviour.
	tel *telemetry.LinkMetrics
	// trRing, when set, receives the per-window link span. Trace IDs are
	// never put on the air here — a trace extension would lengthen the
	// frame and change the bit-error channel's corruption odds, breaking
	// bit-neutrality — so tids ride this in-process map keyed by
	// sequence number and are restored onto decoded frames.
	trRing *trace.Ring
	tids   [tidRingSize]tidEntry
}

// SetTelemetry attaches (or detaches, with nil) the link metric family.
func (l *Link) SetTelemetry(tm *telemetry.LinkMetrics) { l.tel = tm }

// SetTrace attaches (or detaches, with nil) the window-trace ring the
// link records its ARQ spans into. Observation only: the wire frames
// and delivery outcomes are byte-identical either way.
func (l *Link) SetTrace(r *trace.Ring) { l.trRing = r }

// traceFor returns the trace identity of an in-flight sequence number
// (zero entry when untraced or already recycled).
func (l *Link) traceFor(seq uint32) tidEntry {
	e := l.tids[seq%tidRingSize]
	if e.id == 0 || e.seq != seq {
		return tidEntry{}
	}
	return e
}

// restoreTrace re-stamps a decoded wire frame with its in-process trace
// identity before it reaches the reassembler.
func (l *Link) restoreTrace(rx *Packet) {
	if l.trRing == nil || rx.Trace != 0 {
		return
	}
	if e := l.traceFor(rx.Seq); e.id != 0 {
		rx.Trace, rx.EncodeNs = e.id, 0
	}
}

// NewLink builds a link over the given channel delivering to sink.
func NewLink(cfg ARQConfig, ch *Channel, sink Sink) (*Link, error) {
	if ch == nil || sink == nil {
		return nil, ErrLink
	}
	c := cfg.withDefaults()
	if c.PAckLoss != c.PAckLoss || c.PAckLoss < 0 || c.PAckLoss > 1 {
		return nil, ErrLink
	}
	return &Link{
		cfg: c,
		ch:  ch,
		ra:  NewReassembler(sink),
		rng: rand.New(rand.NewSource(c.Seed)),
	}, nil
}

// SendMeasurements packetises one window's per-lead measurements and
// runs the ARQ delivery. It reports whether the window was delivered
// (false means the retry budget was exhausted and the receiver
// zero-filled the gap); the error channel is reserved for sink
// failures.
func (l *Link) SendMeasurements(windowStart int, measurements [][]float64) (bool, error) {
	return l.send(windowStart, 0, measurements)
}

// SendTraced is SendMeasurements for a window carrying a trace ID: the
// ARQ span (attempts, radio energy) is recorded under tid into the
// attached trace ring. The wire frames stay v1 — byte-identical to an
// untraced send — so tracing cannot perturb the channel's per-bit
// corruption odds; the tid travels in-process and is restored onto
// decoded frames before reassembly.
func (l *Link) SendTraced(windowStart int, tid trace.ID, measurements [][]float64) (bool, error) {
	return l.send(windowStart, tid, measurements)
}

func (l *Link) send(windowStart int, tid trace.ID, measurements [][]float64) (bool, error) {
	p := Packet{Seq: l.seq, WindowStart: uint32(windowStart), Measurements: measurements}
	l.seq++
	frame, err := Encode(p)
	if err != nil {
		return false, err
	}
	traced := l.trRing != nil && tid != 0
	if traced {
		l.tids[p.Seq%tidRingSize] = tidEntry{seq: p.Seq, id: tid}
	}
	l.report.Packets++
	l.report.IdealEnergyJ += l.cfg.Radio.TxEnergyJ(len(frame))
	var t0 time.Time
	if l.tel != nil || traced {
		t0 = time.Now()
	}
	if tm := l.tel; tm != nil {
		tm.Packets.Inc()
	}
	packetEnergyJ := 0.0
	attempts := 0
	backoff := l.cfg.BackoffBaseS
	for attempt := 0; attempt <= l.cfg.MaxRetries; attempt++ {
		l.report.Attempts++
		attempts++
		if attempt > 0 {
			l.report.Retransmissions++
			l.report.BackoffS += backoff
			backoff *= l.cfg.BackoffFactor
		}
		attemptJ := l.cfg.Radio.TxEnergyJ(len(frame))
		l.report.EnergyJ += attemptJ
		packetEnergyJ += attemptJ
		if tm := l.tel; tm != nil {
			tm.Attempts.Inc()
			if attempt > 0 {
				tm.Retransmissions.Inc()
			}
			// Sample the Gilbert–Elliott state the attempt is about to
			// see — the occupancy split of radio spend across channel
			// conditions.
			if l.ch.Bad() {
				tm.FramesBad.Inc()
			} else {
				tm.FramesGood.Inc()
			}
		}
		out := l.ch.Transmit(frame)
		if traced && len(out) > 0 {
			// The offer below can complete the window's delivery (and
			// publish its tree), so the cumulative link span must be in the
			// ring first. Later attempts simply overwrite it.
			l.trRing.RecordLink(tid, t0.UnixNano(), int64(time.Since(t0)), attempts, uint64(packetEnergyJ*1e9))
		}
		acked := false
		for _, d := range out {
			rx, err := Decode(d)
			if err != nil {
				continue // corrupted or stale garbage: no ack
			}
			l.restoreTrace(&rx)
			if err := l.ra.Offer(rx); err != nil {
				return false, err
			}
			// Only an intact copy of *this* window acknowledges it; a
			// reordered older frame released now does not.
			if rx.Seq != p.Seq {
				continue
			}
			if l.cfg.PAckLoss > 0 && l.rng.Float64() < l.cfg.PAckLoss {
				l.report.AcksLost++
				if tm := l.tel; tm != nil {
					tm.AcksLost.Inc()
				}
				continue
			}
			acked = true
		}
		if acked {
			l.report.Delivered++
			l.finishPacket(t0, packetEnergyJ, attempts, true)
			return true, nil
		}
	}
	l.report.Lost++
	if traced {
		// Final span for a window the sender gave up on — it may still be
		// released by channel reordering and delivered late.
		l.trRing.RecordLink(tid, t0.UnixNano(), int64(time.Since(t0)), attempts, uint64(packetEnergyJ*1e9))
	}
	l.finishPacket(t0, packetEnergyJ, attempts, false)
	if err := l.ra.DeclareLost(p.Seq); err != nil {
		return false, err
	}
	return false, nil
}

// finishPacket settles one window's telemetry: outcome counter, the
// per-packet energy and attempt distributions, and the link-stage span.
func (l *Link) finishPacket(t0 time.Time, energyJ float64, attempts int, delivered bool) {
	tm := l.tel
	if tm == nil {
		return
	}
	if delivered {
		tm.Delivered.Inc()
	} else {
		tm.Lost.Inc()
	}
	tm.RadioEnergyJ.Add(energyJ)
	tm.PacketMicroJ.Observe(uint64(energyJ * 1e6))
	tm.PacketAttempts.Observe(uint64(attempts))
	tm.Stages.Record(telemetry.StageLink, int64(time.Since(t0)))
}

// Close drains the channel's reordering stage and the reassembler so
// every recoverable window reaches the sink.
func (l *Link) Close() error {
	for _, d := range l.ch.Drain() {
		rx, err := Decode(d)
		if err != nil {
			continue
		}
		l.restoreTrace(&rx)
		if err := l.ra.Offer(rx); err != nil {
			return err
		}
	}
	return l.ra.Flush()
}

// Report returns the session summary with the lower layers' statistics
// filled in.
func (l *Link) Report() Report {
	r := l.report
	r.Reassembly = l.ra.Stats()
	r.Channel = l.ch.Stats()
	return r
}
