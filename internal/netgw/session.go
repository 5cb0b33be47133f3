package netgw

import (
	"net"
	"sync/atomic"
	"time"

	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

// A session is one stream's actor: it owns the stream's
// gateway.Receiver (and through it any warm solver state), its
// link.Reassembler, and the only goroutine that ever touches either.
// Connections are transient visitors — a session outlives resets,
// truncated writes and reconnects, and is the reason a mid-record
// redial resumes instead of restarting.
//
// Concurrency contract: the reader goroutine of the currently attached
// connection is the only producer into the data inbox; attach/detach
// and drain arrive on a separate control channel so backpressure on
// data can never shed a control message. All writes to the connection
// happen on the actor goroutine, so acks, welcomes and digests are
// never interleaved mid-frame.

// sessionMsg is one data-inbox entry: a decoded link packet, or the
// client's fin request.
type sessionMsg struct {
	pkt link.Packet
	// rxNs is the reader-side arrival timestamp of a traced packet
	// (UnixNano; zero when untraced). The actor turns the inbox dwell
	// into the window's ingest span.
	rxNs int64
	// fin marks an end-of-record request carrying the client's total
	// window count instead of a packet.
	fin      bool
	finTotal uint32
}

// sessionCtl is one control-channel entry.
type sessionCtl struct {
	// attach hands the actor a freshly handshaken connection (nil conn
	// with detach set reverts to detached).
	conn   net.Conn
	detach bool
	// from identifies the connection a detach refers to, so a stale
	// detach cannot drop a newer connection.
	from net.Conn
	// nudge asks the actor to re-check the rewind flag — sent when the
	// reader drops a frame while the inbox is empty, so the rewind ack
	// is not deferred until the next delivery.
	nudge bool
}

// sessionStats is the control-plane view of a session, updated with
// atomics because the HTTP goroutine reads it while the actor (and the
// reader) write. The embedded histogram is the lock-free telemetry one,
// so per-session decode-latency quantiles cost four atomic ops per
// window.
type sessionStats struct {
	startedNs  int64
	seqHW      atomic.Uint32
	delivered  atomic.Uint64
	rewinds    atomic.Uint64
	sheds      atomic.Uint64
	corrupt    atomic.Uint64
	reconnects atomic.Uint64
	attached   atomic.Bool
	finished   atomic.Bool
	decodeNs   telemetry.Histogram
}

// info assembles the /sessions row.
func (st *sessionStats) info(id uint64) telemetry.SessionInfo {
	h := st.decodeNs.Snapshot()
	return telemetry.SessionInfo{
		ID:            id,
		StartedUnixNs: st.startedNs,
		Attached:      st.attached.Load(),
		Finished:      st.finished.Load(),
		SeqHighWater:  st.seqHW.Load(),
		Delivered:     st.delivered.Load(),
		Rewinds:       st.rewinds.Load(),
		Sheds:         st.sheds.Load(),
		Corrupt:       st.corrupt.Load(),
		Reconnects:    st.reconnects.Load(),
		DecodeNsP50:   h.P50,
		DecodeNsP99:   h.P99,
	}
}

type session struct {
	id  uint64
	srv *Server
	rx  *gateway.Receiver
	ra  *link.Reassembler
	// tr is this stream's window-trace ring (nil when the server has no
	// trace collector).
	tr *trace.Ring

	inbox chan sessionMsg
	ctl   chan sessionCtl
	// evict is closed by the control plane after it has removed the
	// session from the server table; the actor exits at its next select.
	evict chan struct{}

	stats sessionStats
	// everAttached distinguishes the first attach from reconnects
	// (actor-owned).
	everAttached bool

	// conn is the currently attached connection (actor-owned).
	conn net.Conn
	// sinceAck counts deliveries since the last cumulative ack.
	sinceAck int
	// rewind is set by the reader (shed or corrupt frame) and consumed
	// by the actor, which answers with a go-back-N ack.
	rewind atomic.Bool
	// finished is set once the record completed; report caches the
	// digest so a re-fin after a lost digest frame is answered
	// idempotently.
	finished bool
	report   StreamReport

	ttl *time.Timer
}

func newSession(srv *Server, id uint64) (*session, error) {
	rx, err := srv.getReceiver()
	if err != nil {
		return nil, err
	}
	s := &session{
		id:    id,
		srv:   srv,
		rx:    rx,
		inbox: make(chan sessionMsg, srv.cfg.InboxDepth),
		ctl:   make(chan sessionCtl, 4),
		evict: make(chan struct{}),
	}
	s.stats.startedNs = time.Now().UnixNano()
	if srv.trc != nil {
		s.tr = srv.trc.Session(id)
		rx.SetTrace(s.tr)
	}
	s.ra = link.NewReassembler(rx)
	return s, nil
}

// run is the actor loop. It exits when the record finishes and the TTL
// passes, when the session idles out with no connection, or when the
// server drains; a panic anywhere in the decode path is contained here
// so one poisoned stream cannot take the process down.
func (s *session) run() {
	defer s.srv.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if tm := s.srv.tel; tm != nil {
				tm.SessionPanics.Inc()
			}
			s.srv.logf("session %d: panic isolated: %v", s.id, r)
			s.detachConn()
			s.srv.removeSession(s.id)
			// The receiver may hold arbitrary broken state — do not
			// return it to the pool.
		}
	}()
	s.ttl = time.NewTimer(s.srv.cfg.SessionTTL)
	defer s.ttl.Stop()
	for {
		select {
		case c := <-s.ctl:
			s.handleCtl(c)
		case m := <-s.inbox:
			s.noteInboxPop()
			s.handleMsg(m)
		case <-s.srv.drainCh:
			s.drainAndExit()
			return
		case <-s.evict:
			// The control plane already removed us from the session table;
			// drop the connection and recycle the receiver. Frames still in
			// the inbox are discarded — eviction is an operator's kill
			// switch, not a graceful drain.
			s.detachConn()
			s.srv.putReceiver(s.rx)
			return
		case <-s.ttl.C:
			// No traffic for a full TTL: a detached (or finished) session
			// is garbage; an attached one keeps waiting — the connection
			// read deadline is the liveness watchdog there.
			if s.conn == nil {
				if tm := s.srv.tel; tm != nil {
					tm.SessionsExpired.Inc()
				}
				s.srv.removeSession(s.id)
				s.srv.putReceiver(s.rx)
				return
			}
			s.ttl.Reset(s.srv.cfg.SessionTTL)
		}
	}
}

func (s *session) touch() {
	if !s.ttl.Stop() {
		select {
		case <-s.ttl.C:
		default:
		}
	}
	s.ttl.Reset(s.srv.cfg.SessionTTL)
}

func (s *session) noteInboxPop() {
	if tm := s.srv.tel; tm != nil {
		tm.InboxDepth.Add(-1)
	}
}

func (s *session) handleCtl(c sessionCtl) {
	s.touch()
	if c.nudge {
		if s.rewind.Swap(false) {
			s.sendRewind()
		}
		return
	}
	if c.detach {
		if s.conn == c.from {
			s.detachConn()
		}
		return
	}
	// A new connection supersedes whatever was attached — the
	// duplicate-reconnect policy is "latest wins", because the newest
	// dial is the one the living client made.
	s.detachConn()
	s.conn = c.conn
	s.stats.attached.Store(true)
	if s.everAttached {
		s.stats.reconnects.Add(1)
	}
	s.everAttached = true
	s.writeFrame(frameWelcome, welcomePayload(s.id, s.ra.NextSeq()))
}

func (s *session) detachConn() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.stats.attached.Store(false)
}

func (s *session) handleMsg(m sessionMsg) {
	s.touch()
	if m.fin {
		s.handleFin(m.finTotal)
		return
	}
	if s.finished {
		// Data after fin is a stale retransmit of an already-complete
		// record; the reassembler would count it as a duplicate, but
		// decoding is pointless — drop it.
		return
	}
	if s.beyondWindow(m.pkt.Seq) {
		// Nothing is decoded or filled; the rewind ack tells the client
		// where the stream really resumes, and covers any shed frame the
		// flag was still holding.
		s.rewind.Store(false)
		s.sendRewind()
		return
	}
	if h := s.srv.cfg.poison; h != nil {
		h(s.id, m.pkt)
	}
	var t0 time.Time
	if m.pkt.Trace != 0 && s.tr != nil && m.rxNs > 0 {
		// The ingest span is the frame's dwell between the reader's
		// handoff and the actor picking it up — inbox wait made visible.
		t0 = time.Now()
		s.tr.Record(m.pkt.Trace, trace.KindIngest, m.rxNs, t0.UnixNano()-m.rxNs)
	} else {
		t0 = time.Now()
	}
	if err := s.ra.Offer(m.pkt); err != nil {
		// The packet shape disagrees with the configured decoder
		// (gateway.ErrGateway): this client speaks the wrong geometry.
		// Poison only the connection, not the process.
		if tm := s.srv.tel; tm != nil {
			tm.ProtocolErrors.Inc()
		}
		s.srv.logf("session %d: packet rejected: %v", s.id, err)
		s.detachConn()
		return
	}
	s.stats.decodeNs.ObserveDuration(time.Since(t0))
	s.stats.seqHW.Store(s.ra.NextSeq())
	s.stats.delivered.Add(1)
	if tm := s.srv.tel; tm != nil {
		tm.Delivered.Inc()
	}
	s.sinceAck++
	// Answer a shed/corrupt episode with a go-back-N ack as soon as the
	// actor notices it; otherwise ack cumulatively every AckEvery
	// deliveries and whenever the inbox goes idle (tail flush).
	if s.rewind.Swap(false) {
		s.sendRewind()
		return
	}
	if s.sinceAck >= s.srv.cfg.AckEvery || len(s.inbox) == 0 {
		s.ack(0)
	}
}

// beyondWindow reports whether seq lies link.ReorderWindow or more
// ahead of the reassembly point. The reassembler would zero-fill every
// window up to such a frame — one forged sequence number could append
// gigabytes — while a client never runs more than its in-flight window
// ahead of the last ack.
func (s *session) beyondWindow(seq uint32) bool {
	next := s.ra.NextSeq()
	return seq >= next && seq-next >= link.ReorderWindow
}

func (s *session) ack(flags byte) {
	s.sinceAck = 0
	s.writeFrame(frameAck, ackPayload(s.ra.NextSeq(), flags))
}

// sendRewind answers a shed, corrupt or out-of-window frame with a
// go-back-N ack: the client resends everything from NextSeq on.
func (s *session) sendRewind() {
	s.stats.rewinds.Add(1)
	if tm := s.srv.tel; tm != nil {
		tm.Rewinds.Inc()
	}
	s.ack(ackFlagRewind)
}

func (s *session) handleFin(total uint32) {
	if !s.finished {
		if s.ra.NextSeq() != total {
			// The client believes it is done but the session has not seen
			// everything (a shed tail, or a fin that raced a rewind).
			// Send the resume point instead of a digest.
			if s.rewind.Swap(false) {
				s.sendRewind()
			} else {
				s.ack(0)
			}
			return
		}
		if err := s.ra.Flush(); err != nil {
			if tm := s.srv.tel; tm != nil {
				tm.ProtocolErrors.Inc()
			}
			s.detachConn()
			return
		}
		st := s.ra.Stats()
		s.report = StreamReport{
			Digest:     SignalDigest(s.rx.Signal()),
			Samples:    s.rx.SamplesReceived(),
			Delivered:  st.Delivered,
			Filled:     st.Filled,
			Duplicates: st.Duplicates,
		}
		s.finished = true
		s.stats.finished.Store(true)
		if tm := s.srv.tel; tm != nil {
			tm.SessionsFinished.Inc()
		}
	}
	s.writeFrame(frameDigest, digestPayload(s.report))
}

// drainAndExit is the graceful-shutdown path: stop ingesting (detach
// the connection so the reader dies), flush every already-accepted
// frame through the decode engine, then leave. The client sees its
// connection close and will fail over; nothing already accepted is
// thrown away.
func (s *session) drainAndExit() {
	s.detachConn()
	for {
		select {
		case m := <-s.inbox:
			s.noteInboxPop()
			if !m.fin && !s.finished && !s.beyondWindow(m.pkt.Seq) {
				if err := s.ra.Offer(m.pkt); err == nil {
					s.stats.seqHW.Store(s.ra.NextSeq())
					s.stats.delivered.Add(1)
					if tm := s.srv.tel; tm != nil {
						tm.Delivered.Inc()
					}
				}
			}
		default:
			s.srv.removeSession(s.id)
			s.srv.putReceiver(s.rx)
			return
		}
	}
}

// writeFrame sends one frame on the attached connection under the
// configured write deadline; a write failure detaches the connection
// (the client will redial and resume).
func (s *session) writeFrame(typ byte, payload []byte) {
	if s.conn == nil {
		return
	}
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
	if err := writeFrame(s.conn, typ, payload); err != nil {
		s.detachConn()
	}
}

// offerData is called by the reader goroutine: a non-blocking handoff
// into the actor's inbox. A full inbox sheds the frame — the accept
// path and the reader never block on a slow decoder — and flags the
// actor to send a rewind ack so the client's go-back-N recovers the
// loss.
func (s *session) offerData(pkt link.Packet, tm *telemetry.NetGWMetrics) {
	m := sessionMsg{pkt: pkt}
	if pkt.Trace != 0 && s.tr != nil {
		m.rxNs = time.Now().UnixNano()
	}
	select {
	case s.inbox <- m:
		if tm != nil {
			tm.InboxDepth.Add(1)
		}
	default:
		s.stats.sheds.Add(1)
		if tm != nil {
			tm.FramesShed.Inc()
		}
		s.rewind.Store(true)
		s.nudge()
	}
}

// nudge non-blockingly pokes the actor to flush a pending rewind ack.
// Dropping the nudge is safe: a busy actor checks the flag on every
// delivery anyway.
func (s *session) nudge() {
	select {
	case s.ctl <- sessionCtl{nudge: true}:
	default:
	}
}

// offerFin is called by the reader goroutine for the final frame; it
// may block (the reader has nothing left to read) but gives up when the
// server starts draining.
func (s *session) offerFin(total uint32, tm *telemetry.NetGWMetrics) {
	select {
	case s.inbox <- sessionMsg{fin: true, finTotal: total}:
		if tm != nil {
			tm.InboxDepth.Add(1)
		}
	case <-s.srv.drainCh:
	}
}

// noteCorrupt is called by the reader when the link CRC rejects a data
// frame: the frame is dropped and the actor owes the client a rewind.
func (s *session) noteCorrupt(tm *telemetry.NetGWMetrics) {
	s.stats.corrupt.Add(1)
	if tm != nil {
		tm.FramesCorrupt.Inc()
	}
	s.rewind.Store(true)
	s.nudge()
}
