package core

import (
	"time"

	"wbsn/internal/af"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/energy"
	"wbsn/internal/link"
	"wbsn/internal/morpho"
	"wbsn/internal/telemetry"
)

// legacyStream is a verbatim, test-only copy of the pre-graph streaming
// chain (the hard-wired processChunk that shipped before the compiled
// plan). The golden bit-identity tests replay identical inputs through
// it and through the compiled Stream and require byte-identical events
// and telemetry counts. Do not "fix" or modernise this file: its value
// is that it does not change. The one rule it shares with the Stream
// is which chunk emits a beat (beatSpan), so the suite pins the plan's
// signal processing event by event whatever that rule is.
type legacyStream struct {
	node             *Node
	pos              int
	buf              [][]float64
	bufStart         int
	chunkLen, hop    int
	lastBeatR        int
	afBeats          []delineation.BeatFiducials
	afEmit           int
	morph            morpho.Scratch
	filtered         [][]float64
	combined         []float64
	chunk            [][]float64
	beatBuf, featBuf []float64
	tel              *telemetry.NodeMetrics
	telCursor        time.Time
}

func (s *legacyStream) stageLap(stage telemetry.Stage) {
	now := time.Now()
	s.tel.Stages.Record(stage, int64(now.Sub(s.telCursor)))
	s.telCursor = now
}

func (s *legacyStream) SetTelemetry(tm *telemetry.NodeMetrics) { s.tel = tm }

func newLegacyStream(n *Node) *legacyStream {
	s := &legacyStream{node: n, lastBeatR: -1}
	s.buf = make([][]float64, n.cfg.Leads)
	switch n.cfg.Mode {
	case ModeRawStreaming:
		s.chunkLen = n.cfg.CSWindow
		s.hop = s.chunkLen
	case ModeCS:
		s.chunkLen = n.cfg.CSWindow
		s.hop = s.chunkLen
	default:
		s.chunkLen = int(4 * n.cfg.Fs)
		s.hop = s.chunkLen - int(1*n.cfg.Fs)
	}
	return s
}

func (s *legacyStream) Reset() {
	s.pos = 0
	s.bufStart = 0
	s.lastBeatR = -1
	s.afBeats = s.afBeats[:0]
	s.afEmit = 0
	for i := range s.buf {
		s.buf[i] = s.buf[i][:0]
	}
}

func (s *legacyStream) Push(sample []float64) ([]Event, error) {
	if len(sample) != len(s.buf) {
		return nil, ErrStream
	}
	for i, v := range sample {
		s.buf[i] = append(s.buf[i], v)
	}
	s.pos++
	return s.drain(false)
}

func (s *legacyStream) PushBlock(block [][]float64) ([]Event, error) {
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
	s.pos += n
	return s.drain(false)
}

func (s *legacyStream) Flush() ([]Event, error) {
	return s.drain(true)
}

func (s *legacyStream) drain(flush bool) ([]Event, error) {
	var events []Event
	for {
		have := len(s.buf[0])
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
			s.chunk[i] = s.buf[i][:take]
		}
		if s.tel != nil {
			s.telCursor = time.Now()
		}
		evs, err := s.processChunk(s.chunk, s.bufStart)
		if err != nil {
			return nil, err
		}
		events = append(events, evs...)
		adv := s.hop
		if take < s.chunkLen {
			adv = take
		}
		for i := range s.buf {
			kept := copy(s.buf[i], s.buf[i][adv:])
			s.buf[i] = s.buf[i][:kept]
		}
		if tm := s.tel; tm != nil {
			s.stageLap(telemetry.StageAcquire)
			tm.Samples.Add(uint64(adv))
			tm.Chunks.Inc()
			tm.Events.Add(uint64(len(evs)))
		}
		s.bufStart += adv
		if take < s.chunkLen {
			break
		}
	}
	return events, nil
}

func (s *legacyStream) processChunk(chunk [][]float64, base int) ([]Event, error) {
	n := s.node
	var events []Event
	switch n.cfg.Mode {
	case ModeRawStreaming:
		bytes := (len(chunk)*len(chunk[0])*energy.SampleBits + 7) / 8
		events = append(events, Event{Kind: EventPacket, At: base, Bytes: bytes})
		if tm := s.tel; tm != nil {
			tm.Packets.Inc()
			tm.TxBytes.Add(uint64(bytes))
		}
	case ModeCS:
		if len(chunk[0]) == n.cfg.CSWindow {
			ys := n.enc.EncodeLeadsQ15(chunk)
			for _, y := range ys {
				if err := link.QuantizeLead(y); err != nil {
					return nil, err
				}
			}
			bytes := (len(ys[0])*len(chunk)*energy.SampleBits + 7) / 8
			events = append(events, Event{Kind: EventPacket, At: base, Bytes: bytes, Measurements: ys})
			if tm := s.tel; tm != nil {
				s.stageLap(telemetry.StageCS)
				tm.Packets.Inc()
				tm.TxBytes.Add(uint64(bytes))
			}
		}
	default:
		leads, _, _ := legacyGateLeads(n, chunk)
		filtered, err := morpho.FilterLeadsInto(leads, morpho.FilterConfig{Fs: n.cfg.Fs}, s.filtered, &s.morph)
		if err != nil {
			return nil, err
		}
		if s.tel != nil {
			s.stageLap(telemetry.StageFilter)
		}
		s.filtered = filtered
		leads = filtered
		s.combined = dsp.CombineRMSInto(leads, s.combined)
		combined := s.combined
		beats, err := n.del.Delineate(combined)
		if err != nil {
			return nil, err
		}
		if s.tel != nil {
			s.stageLap(telemetry.StageDelineate)
		}
		refractory := int(0.2 * n.cfg.Fs)
		lo, hi := beatSpan(base, len(chunk[0]), s.chunkLen, s.hop)
		for _, b := range beats {
			absR := b.R + base
			if absR <= s.lastBeatR+refractory {
				continue
			}
			if b.R < lo || b.R >= hi {
				continue
			}
			s.lastBeatR = absR
			bo := BeatOutput{Fiducials: offsetBeat(b, base), Label: -1}
			if n.cfg.Mode == ModeClassification {
				if beat := n.beatWin.ExtractInto(combined, b.R, s.beatBuf); beat != nil {
					s.beatBuf = beat
					z, err := n.cfg.Classifier.RP().ProjectInto(beat, s.featBuf)
					if err != nil {
						return nil, err
					}
					s.featBuf = z
					label, mem, err := n.cfg.Classifier.PredictProjected(z)
					if err != nil {
						return nil, err
					}
					bo.Label = label
					bo.Membership = mem
				}
				if s.tel != nil {
					s.stageLap(telemetry.StageClassify)
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
			w := 24
			for s.afEmit+w <= len(s.afBeats) {
				f := af.ExtractFeatures(s.afBeats[s.afEmit:s.afEmit+w], n.cfg.Fs)
				score := af.Score(f)
				events = append(events, Event{
					Kind: EventAF,
					At:   s.afBeats[s.afEmit].R,
					AF:   af.Decision{StartBeat: s.afEmit, Score: score, AF: score >= 0.5, Features: f},
				})
				s.afEmit += w / 2
			}
		}
	}
	return events, nil
}

// legacyGateLeads is a frozen copy of the node's former lead gate,
// Node.gateLeads, with its receiver made a parameter.
func legacyGateLeads(n *Node, leads [][]float64) ([][]float64, []bool, int) {
	used := make([]bool, len(leads))
	for i := range used {
		used[i] = true
	}
	if !n.cfg.GateLeads || len(leads) < 2 {
		return leads, used, 0
	}
	mask := link.GoodLeads(leads, n.cfg.Fs)
	ops := 0
	if len(leads) > 0 {
		ops = len(leads) * len(leads[0]) * 3 // mean/RMS/peak passes
	}
	kept := make([][]float64, 0, len(leads))
	for li, ok := range mask {
		if ok {
			kept = append(kept, leads[li])
		}
	}
	if len(kept) == 0 { // GoodLeads guarantees one lead, but be safe
		return leads, used, ops
	}
	return kept, mask, ops
}
