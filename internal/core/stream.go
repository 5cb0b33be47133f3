package core

import (
	"errors"
	"time"

	"wbsn/internal/af"
	"wbsn/internal/delineation"
	"wbsn/internal/graph"
	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

// ErrStream is returned for invalid streaming usage.
var ErrStream = errors.New("core: invalid stream input")

// EventKind tags a streaming output event.
type EventKind int

// Event kinds.
const (
	// EventPacket is a radio payload ready for transmission (raw or CS
	// measurements).
	EventPacket EventKind = iota
	// EventBeat is a delineated (and possibly classified) heartbeat.
	EventBeat
	// EventAF is a windowed atrial-fibrillation decision.
	EventAF
)

// Event is one output of the streaming node.
type Event struct {
	Kind EventKind
	// At is the absolute sample index the event refers to (window start
	// for packets, R peak for beats, window start for AF decisions).
	At int
	// Bytes is the payload size for EventPacket.
	Bytes int
	// Measurements holds the per-lead CS measurement vectors of a
	// ModeCS packet (nil for raw packets), for receiver-side
	// reconstruction. They are on the radio's 12-bit grid: exactly the
	// values link.Decode returns for the packet's frame.
	Measurements [][]float64
	// Beat is set for EventBeat.
	Beat BeatOutput
	// AF is set for EventAF.
	AF af.Decision
	// Trace is the window's end-to-end trace ID, minted for CS packet
	// events when a trace ring is attached (zero otherwise — untraced
	// streams emit bit-identical events with these fields zero-valued).
	Trace trace.ID
	// EncodeNs is the node-side encode span duration that produced a
	// traced packet, for transports that forward it to the gateway.
	EncodeNs int64
}

// Stream is the on-line form of the node: samples are pushed as they are
// acquired and events come out with bounded latency. Analysis modes
// process overlapping chunks internally so beats crossing chunk borders
// are not lost.
//
// Each chunk runs through the node's compiled execution plan (see
// internal/graph): the per-mode DSP chain is fused and arena-planned at
// NewNode time, and the stream owns one executor over that shared plan,
// so steady-state chunk processing does not allocate work buffers.
type Stream struct {
	node *Node
	// exec runs the node's compiled plan; it owns every per-stream work
	// buffer (scratch arena, filter states, classification windows).
	exec *graph.Exec
	// per-lead buffered samples (absolute start at bufStart).
	buf      [][]float64
	bufStart int
	// chunkLen and hop control the analysis windowing.
	chunkLen, hop int
	// lastBeatR is the absolute R of the last emitted beat (dedup).
	lastBeatR int
	// beats accumulated for AF windowing (absolute Rs).
	afBeats []delineation.BeatFiducials
	afEmit  int // beats already covered by emitted AF windows
	// chunk is the reusable per-drain view of the buffered leads.
	chunk [][]float64
	// tel, when set, receives per-chunk counters and per-stage timings.
	// Nothing is recorded per sample, so the Push hot path is identical
	// with telemetry attached (TestStreamPushSteadyStateAllocs pins the
	// instrumented path at 0 allocs mid-chunk).
	tel *telemetry.NodeMetrics
	// telCursor chains the per-stage timings within one chunk: each
	// stage boundary takes a single clock reading and spans from the
	// previous boundary (clock reads dominate telemetry cost on
	// paravirtualised hosts, so stages share boundaries instead of each
	// paying a start and an end read).
	telCursor time.Time
	// trRing, when set, receives one encode span per emitted CS packet
	// and the packet events carry freshly minted trace IDs. trHi tags
	// this stream's IDs; trSeq counts minted windows (1-based so the
	// reserved zero ID never occurs); trT0 is the current chunk's encode
	// span start.
	trRing *trace.Ring
	trHi   uint32
	trSeq  uint32
	trT0   time.Time
}

// Lap implements graph.Lapper: it records the span from the previous lap
// point to now under the given stage and advances the cursor — one clock
// read per stage boundary. The executor only calls it when telemetry is
// attached (the stream passes a nil Lapper otherwise).
func (s *Stream) Lap(stage telemetry.Stage) {
	now := time.Now()
	s.tel.Stages.Record(stage, int64(now.Sub(s.telCursor)))
	s.telCursor = now
}

// SetTelemetry attaches (or detaches, with nil) the node metric family.
// Call before pushing samples; the stream records chunk counts, event
// counts and per-stage latencies into it. Telemetry is observation
// only — the emitted events are bit-identical either way.
func (s *Stream) SetTelemetry(tm *telemetry.NodeMetrics) { s.tel = tm }

// SetTrace attaches (or detaches, with nil) the end-to-end window
// trace ring. hi tags this stream's trace IDs (patient or record
// index); window sequence numbers within the stream count from 1 so
// the reserved zero ID never occurs. Like telemetry, tracing is
// observation only — the events' signal content is bit-identical, only
// the Trace/EncodeNs tags differ.
func (s *Stream) SetTrace(r *trace.Ring, hi uint32) {
	s.trRing = r
	s.trHi = hi
	s.trSeq = 0
}

// NewStream creates a streaming processor for the node's mode, running
// the node's shared compiled plan through a private executor.
func (n *Node) NewStream() (*Stream, error) {
	s := &Stream{node: n, exec: n.plan.NewExec(), lastBeatR: -1}
	s.buf = make([][]float64, n.cfg.Leads)
	s.chunkLen = n.plan.ChunkLen()
	switch n.cfg.Mode {
	case ModeRawStreaming, ModeCS:
		s.hop = s.chunkLen // packetise at window granularity
	default:
		// Analysis chunks overlap by 1 s (see Node.buildPlan).
		s.hop = s.chunkLen - int(1*n.cfg.Fs)
	}
	return s, nil
}

// Reset returns the stream to its initial state (as if freshly created)
// while keeping its allocated buffers, so one stream can replay many
// records without reconstruction cost.
func (s *Stream) Reset() {
	s.bufStart = 0
	s.lastBeatR = -1
	s.afBeats = s.afBeats[:0]
	s.afEmit = 0
	s.trSeq = 0
	for i := range s.buf {
		s.buf[i] = s.buf[i][:0]
	}
}

// PushBlock appends a block of samples per lead (lead-major:
// block[lead][i]) and returns the events that became ready.
func (s *Stream) PushBlock(block [][]float64) ([]Event, error) {
	if len(block) != len(s.buf) {
		return nil, ErrStream
	}
	n := len(block[0])
	for _, l := range block {
		if len(l) != n {
			return nil, ErrStream
		}
	}
	for i := range block {
		s.buf[i] = append(s.buf[i], block[i]...)
	}
	return s.drain(false)
}

// Flush processes whatever remains in the buffer (end of acquisition).
func (s *Stream) Flush() ([]Event, error) {
	return s.drain(true)
}

// drain emits events for every complete chunk in the buffer. Chunks
// are views at a read offset that advances by hop; the unread remainder
// moves to the front once, when the drain ends, so a block of n samples
// costs O(n) copying however many chunks it completes.
func (s *Stream) drain(flush bool) ([]Event, error) {
	var events []Event
	var err error
	off := 0
	for {
		have := len(s.buf[0]) - off
		if have < s.chunkLen && !(flush && have > 0) {
			break
		}
		take := s.chunkLen
		if take > have {
			take = have
		}
		if cap(s.chunk) < len(s.buf) {
			s.chunk = make([][]float64, len(s.buf))
		}
		s.chunk = s.chunk[:len(s.buf)]
		for i := range s.buf {
			s.chunk[i] = s.buf[i][off : off+take]
		}
		if s.tel != nil || s.trRing != nil {
			now := time.Now()
			s.telCursor = now
			s.trT0 = now
		}
		var evs []Event
		if evs, err = s.processChunk(s.chunk, s.bufStart); err != nil {
			break
		}
		events = append(events, evs...)
		// Advance by hop (or everything on a final short flush).
		adv := s.hop
		if take < s.chunkLen {
			adv = take
		}
		off += adv
		if tm := s.tel; tm != nil {
			// The acquire lap covers event assembly (everything since
			// the last stage boundary).
			s.Lap(telemetry.StageAcquire)
			tm.Samples.Add(uint64(adv))
			tm.Chunks.Inc()
			tm.Events.Add(uint64(len(evs)))
		}
		s.bufStart += adv
		if take < s.chunkLen {
			break
		}
	}
	// Compact instead of reslicing forward: the backing array keeps its
	// full capacity, so once warm the appends in PushBlock never
	// reallocate (steady-state O(1) allocations).
	if off > 0 {
		for i := range s.buf {
			kept := copy(s.buf[i], s.buf[i][off:])
			s.buf[i] = s.buf[i][:kept]
		}
	}
	if err != nil {
		return nil, err
	}
	return events, nil
}

// processChunk runs the compiled plan over one chunk starting at
// absolute sample index base and assembles the mode's events from the
// plan result.
func (s *Stream) processChunk(chunk [][]float64, base int) ([]Event, error) {
	n := s.node
	var lp graph.Lapper
	if s.tel != nil {
		lp = s
	}
	res, err := s.exec.Run(chunk, lp)
	if err != nil {
		return nil, err
	}
	var events []Event
	switch n.cfg.Mode {
	case ModeRawStreaming, ModeCS:
		// A CS plan produces no packet for a partial trailing window.
		if res.HasPacket {
			ev := Event{Kind: EventPacket, At: base, Bytes: res.PacketBytes, Measurements: res.Measurements}
			if s.trRing != nil && res.Measurements != nil {
				// Mint the window's end-to-end trace ID and record the
				// encode span (everything from the chunk boundary to here:
				// the DSP chain plus CS projection and packetising).
				s.trSeq++
				ev.Trace = trace.NewID(s.trHi, s.trSeq)
				ev.EncodeNs = int64(time.Since(s.trT0))
				s.trRing.Record(ev.Trace, trace.KindEncode, s.trT0.UnixNano(), ev.EncodeNs)
			}
			events = append(events, ev)
			if tm := s.tel; tm != nil {
				tm.Packets.Inc()
				tm.TxBytes.Add(uint64(res.PacketBytes))
			}
		}
	default:
		refractory := int(0.2 * n.cfg.Fs)
		lo, hi := beatSpan(base, len(chunk[0]), s.chunkLen, s.hop)
		for _, b := range res.Beats {
			absR := b.R + base
			if b.R < lo || b.R >= hi || absR <= s.lastBeatR+refractory {
				continue // another chunk emits it, or already emitted it
			}
			s.lastBeatR = absR
			bo := BeatOutput{Fiducials: offsetBeat(b, base), Label: -1}
			if n.cfg.Mode == ModeClassification {
				label, mem, ok, err := s.exec.ClassifyBeat(b.R, lp)
				if err != nil {
					return nil, err
				}
				if ok {
					bo.Label = label
					bo.Membership = mem
				}
			}
			if tm := s.tel; tm != nil {
				tm.Beats.Inc()
			}
			events = append(events, Event{Kind: EventBeat, At: absR, Beat: bo})
			if n.cfg.Mode == ModeAFAlarm {
				s.afBeats = append(s.afBeats, bo.Fiducials)
			}
		}
		if n.cfg.Mode == ModeAFAlarm {
			w := af.WindowBeats
			for s.afEmit+w <= len(s.afBeats) {
				f := af.ExtractFeatures(s.afBeats[s.afEmit:s.afEmit+w], n.cfg.Fs)
				score := af.Score(f)
				events = append(events, Event{
					Kind: EventAF,
					At:   s.afBeats[s.afEmit].R,
					AF:   af.Decision{StartBeat: s.afEmit, Score: score, AF: score >= af.Threshold, Features: f},
				})
				s.afEmit += w / 2
			}
		}
	}
	return events, nil
}

// beatSpan returns the chunk-local range [lo, hi) of R peaks that a
// chunk of take samples at absolute index base emits. Chunks overlap by
// chunkLen-hop samples and each emits [lead, hop+lead), lead being half
// the overlap, so every beat keeps lead samples of context on both
// sides for its P and T searches and classification window. The first
// chunk emits from its start and a final short chunk to its end.
func beatSpan(base, take, chunkLen, hop int) (lo, hi int) {
	lead := (chunkLen - hop) / 2
	lo, hi = lead, hop+lead
	if base == 0 {
		lo = 0
	}
	if take < chunkLen {
		hi = take
	}
	return lo, hi
}

// offsetBeat shifts a beat's fiducials by the chunk base (absent waves
// stay -1).
func offsetBeat(b delineation.BeatFiducials, base int) delineation.BeatFiducials {
	sh := func(v int) int {
		if v < 0 {
			return -1
		}
		return v + base
	}
	out := b
	out.R = b.R + base
	out.QRS = delineation.Wave{On: sh(b.QRS.On), Peak: sh(b.QRS.Peak), Off: sh(b.QRS.Off)}
	out.P = delineation.Wave{On: sh(b.P.On), Peak: sh(b.P.Peak), Off: sh(b.P.Off)}
	out.T = delineation.Wave{On: sh(b.T.On), Peak: sh(b.T.Peak), Off: sh(b.T.Off)}
	return out
}
