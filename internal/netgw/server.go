package netgw

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

// ErrServer is returned for invalid server configuration or use.
var ErrServer = errors.New("netgw: invalid server configuration")

// ServerConfig parameterises the networked gateway.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Gateway mirrors the fleet's node configuration — every stream is
	// decoded with this geometry, exactly like a deployed firmware
	// image shares one sensing-matrix seed.
	Gateway gateway.Config
	// EngineWorkers sizes the shared reconstruction pool (0 selects
	// GOMAXPROCS). Serve rejects a negative value with ErrServer.
	EngineWorkers int
	// EngineBatch is the most queued windows one engine worker dispatch
	// reconstructs in a single structure-of-arrays solver pass (default
	// 1 — sequential dispatch). Concurrent sessions submitting into the
	// shared pool fill batches opportunistically; per window the output
	// is bit-identical at every batch size.
	EngineBatch int
	// EngineBatchWait bounds how long an engine worker holding a
	// partial batch waits for more windows before dispatching (0
	// dispatches greedily with whatever is queued).
	EngineBatchWait time.Duration
	// InboxDepth bounds each session actor's data inbox (default 32).
	// A full inbox sheds frames — backpressure never blocks a reader.
	InboxDepth int
	// AckEvery is the cumulative-ack cadence in delivered windows
	// (default 4). Rewind acks are sent immediately regardless.
	AckEvery int
	// IdleTimeout is the per-frame read deadline (default 30s): a
	// connection that cannot produce one complete frame within it —
	// idle or slowloris-paced — is cut. The session survives the cut.
	IdleTimeout time.Duration
	// WriteTimeout bounds every server-side frame write (default 10s),
	// so a client that stops reading cannot wedge a session actor.
	WriteTimeout time.Duration
	// SessionTTL is how long a session outlives its last activity
	// (default 2m) — the window a disconnected client has to redial and
	// resume, and the retention of a finished record's digest for
	// idempotent re-fins.
	SessionTTL time.Duration
	// Telemetry, when set, wires the netgw and gateway metric families.
	Telemetry *telemetry.Set
	// Logf, when set, receives one line per notable session event.
	Logf func(format string, args ...any)

	// poison, when set (tests only), runs on the actor goroutine for
	// every delivered packet before decode — the hook used to prove
	// panic isolation.
	poison func(streamID uint64, p link.Packet)
}

func (c ServerConfig) withDefaults() ServerConfig {
	out := c
	if out.InboxDepth <= 0 {
		out.InboxDepth = 32
	}
	if out.AckEvery <= 0 {
		out.AckEvery = 4
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 30 * time.Second
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 10 * time.Second
	}
	if out.SessionTTL <= 0 {
		out.SessionTTL = 2 * time.Minute
	}
	return out
}

// Server is the networked gateway: an accept loop, a session actor per
// stream, and one shared reconstruction engine.
type Server struct {
	cfg    ServerConfig
	ln     net.Listener
	engine *gateway.Engine
	tel    *telemetry.NetGWMetrics
	// trc is the end-to-end window-trace collector (nil without
	// telemetry); each session records into its own per-stream ring.
	trc *trace.Collector

	mu       sync.Mutex
	sessions map[uint64]*session
	conns    map[net.Conn]struct{}
	freeRx   []*gateway.Receiver
	draining bool

	drainCh   chan struct{}
	drainOnce sync.Once
	acceptWg  sync.WaitGroup
	connWg    sync.WaitGroup
	// wg counts session actors.
	wg sync.WaitGroup
}

// Serve binds the listener and starts accepting. The returned server
// is running; stop it with Shutdown (graceful) or Close.
func Serve(cfg ServerConfig) (*Server, error) {
	c := cfg.withDefaults()
	if c.EngineWorkers < 0 {
		return nil, fmt.Errorf("%w: EngineWorkers %d is negative", ErrServer, c.EngineWorkers)
	}
	s := &Server{
		cfg:      c,
		sessions: make(map[uint64]*session),
		conns:    make(map[net.Conn]struct{}),
		drainCh:  make(chan struct{}),
	}
	ecfg := gateway.EngineConfig{Workers: c.EngineWorkers, Batch: c.EngineBatch, BatchWait: c.EngineBatchWait}
	if c.Telemetry != nil {
		s.tel = c.Telemetry.NetGW
		s.trc = c.Telemetry.Trace
		ecfg.Metrics = c.Telemetry.Gateway
	}
	var err error
	if s.engine, err = gateway.NewEngine(c.Gateway, ecfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", c.Addr)
	if err != nil {
		s.engine.Close()
		return nil, err
	}
	s.ln = ln
	s.acceptWg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.acceptWg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown/Close)
		}
		if !s.trackConn(conn) {
			conn.Close()
			continue
		}
		if tm := s.tel; tm != nil {
			tm.ConnsAccepted.Inc()
		}
		s.connWg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handleConn is the per-connection reader: handshake, then decode data
// frames into the session's inbox until the connection dies. It never
// decodes CS windows itself and never blocks on the actor — shedding,
// not blocking, is the backpressure contract.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.logf("conn %v: reader panic isolated: %v", conn.RemoteAddr(), r)
		}
		conn.Close()
		s.untrackConn(conn)
		if tm := s.tel; tm != nil {
			tm.ConnsClosed.Inc()
		}
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	var buf []byte
	// Handshake: the first frame must be a Hello naming the stream.
	conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	typ, payload, buf, err := readFrame(conn, buf)
	if err != nil || typ != frameHello {
		s.protoErr("handshake")
		return
	}
	id, err := parseHello(payload)
	if err != nil {
		s.protoErr("hello")
		return
	}
	sess, resumed, err := s.attach(id, conn)
	if err != nil {
		return // draining, or receiver construction failed
	}
	if tm := s.tel; tm != nil && resumed {
		tm.Resumes.Inc()
	}
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		typ, payload, buf, err = readFrame(conn, buf)
		if err != nil {
			if errors.Is(err, ErrFrame) {
				s.protoErr("framing")
			} else if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
				// The deadline fired mid-frame or on an idle line: a
				// slowloris-paced or dead connection was cut.
				if tm := s.tel; tm != nil {
					tm.IdleCuts.Inc()
				}
			}
			break
		}
		switch typ {
		case frameData:
			if tm := s.tel; tm != nil {
				tm.FramesRx.Inc()
			}
			pkt, derr := link.Decode(payload)
			if derr != nil {
				// Corrupt in flight (bit flips): drop the frame, owe the
				// client a rewind. The link CRC is the integrity boundary.
				sess.noteCorrupt(s.tel)
				continue
			}
			sess.offerData(pkt, s.tel)
		case frameFin:
			total, perr := parseFin(payload)
			if perr != nil {
				s.protoErr("fin")
				return
			}
			sess.offerFin(total, s.tel)
		case frameHello:
			// A re-Hello on the same connection re-runs the handshake (a
			// confused client, or a duplicate dialer probing). Same
			// stream only; switching streams mid-connection is an error.
			rid, perr := parseHello(payload)
			if perr != nil || rid != id {
				s.protoErr("re-hello")
				return
			}
			s.sendAttach(sess, conn)
		default:
			s.protoErr("unexpected frame type")
			return
		}
	}
	// Tell the actor this connection is gone (best effort; a stale
	// detach for a superseded connection is ignored by the actor).
	select {
	case sess.ctl <- sessionCtl{detach: true, from: conn}:
	default:
	}
}

func (s *Server) protoErr(what string) {
	if tm := s.tel; tm != nil {
		tm.ProtocolErrors.Inc()
	}
	s.logf("protocol error: %s", what)
}

// attach finds or creates the stream's session and hands it the
// connection. The bool reports whether an existing session resumed.
func (s *Server) attach(id uint64, conn net.Conn) (*session, bool, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, ErrServer
	}
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		// Build the session (and its receiver, which takes s.mu for the
		// pool) outside the lock, then publish it — losing a publish race
		// to a concurrent dial for the same stream just returns the
		// receiver to the pool.
		fresh, err := newSession(s, id)
		if err != nil {
			s.logf("session %d: receiver: %v", id, err)
			return nil, false, err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.putReceiver(fresh.rx)
			return nil, false, ErrServer
		}
		if existing, raced := s.sessions[id]; raced {
			s.mu.Unlock()
			s.putReceiver(fresh.rx)
			sess, ok = existing, true
		} else {
			s.sessions[id] = fresh
			if tm := s.tel; tm != nil {
				tm.SessionsStarted.Inc()
				tm.SessionsActive.Set(int64(len(s.sessions)))
			}
			s.wg.Add(1)
			go fresh.run()
			s.mu.Unlock()
			sess = fresh
		}
	}
	if tm := s.tel; tm != nil {
		tm.Attaches.Inc()
		if ok && sess.stats.seqHW.Load() > 0 {
			// Reconnected to a session holding real progress: the redial
			// resumed mid-record instead of restarting.
			tm.ResumeHits.Inc()
		}
	}
	s.sendAttach(sess, conn)
	return sess, ok, nil
}

// sendAttach queues the attach without blocking: if the actor's control
// channel is saturated the connection is closed instead — the client
// redials, which is always safe.
func (s *Server) sendAttach(sess *session, conn net.Conn) {
	select {
	case sess.ctl <- sessionCtl{conn: conn}:
	default:
		conn.Close()
	}
}

func (s *Server) removeSession(id uint64) {
	s.mu.Lock()
	delete(s.sessions, id)
	if tm := s.tel; tm != nil {
		tm.SessionsActive.Set(int64(len(s.sessions)))
	}
	s.mu.Unlock()
	if s.trc != nil {
		s.trc.DropSession(id)
	}
}

// getReceiver pops a pooled receiver or builds one mirroring the
// server's gateway configuration, engine attached.
func (s *Server) getReceiver() (*gateway.Receiver, error) {
	s.mu.Lock()
	if n := len(s.freeRx); n > 0 {
		rx := s.freeRx[n-1]
		s.freeRx = s.freeRx[:n-1]
		s.mu.Unlock()
		return rx, nil
	}
	s.mu.Unlock()
	rx, err := gateway.NewReceiver(s.cfg.Gateway)
	if err != nil {
		return nil, err
	}
	if err := rx.AttachEngine(s.engine); err != nil {
		return nil, err
	}
	return rx, nil
}

// putReceiver resets a session's receiver and returns it to the pool,
// so steady-state session churn reuses decoder state instead of
// regenerating the sensing matrix per connection.
func (s *Server) putReceiver(rx *gateway.Receiver) {
	rx.SetTrace(nil)
	rx.Reset()
	s.mu.Lock()
	s.freeRx = append(s.freeRx, rx)
	s.mu.Unlock()
}

// Shutdown drains the server gracefully: stop accepting, cut the
// transport (clients fail over cleanly), flush every frame already
// accepted into a session inbox through the reconstruction engine,
// then release the engine. ctx bounds the wait; on expiry the engine
// teardown finishes in the background and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	start := time.Now()
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.ln.Close()
	s.mu.Lock()
	s.draining = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.acceptWg.Wait()
		s.connWg.Wait()
		s.wg.Wait()
		s.engine.Close()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if tm := s.tel; tm != nil {
		tm.DrainNs.Set(time.Since(start).Nanoseconds())
	}
	return err
}

// Close stops the server, waiting indefinitely for the drain to
// complete.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// The Server is the telemetry endpoint's ControlPlane: /sessions and
// /sessions/{id}/evict are answered from the session table below.
var _ telemetry.ControlPlane = (*Server)(nil)

// ControlSessions snapshots the live session table. Stats are atomics
// updated by the session actors, so the snapshot never blocks the data
// path.
func (s *Server) ControlSessions() []telemetry.SessionInfo {
	s.mu.Lock()
	out := make([]telemetry.SessionInfo, 0, len(s.sessions))
	for id, sess := range s.sessions {
		out = append(out, sess.stats.info(id))
	}
	s.mu.Unlock()
	return out
}

// EvictSession removes session id from the table synchronously — the
// next ControlSessions call no longer lists it — and signals its actor
// to exit. Reports whether the session existed. The stream id is not
// banned: a client that redials afterwards starts a fresh session.
func (s *Server) EvictSession(id uint64) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		if tm := s.tel; tm != nil {
			tm.SessionsActive.Set(int64(len(s.sessions)))
		}
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	if s.trc != nil {
		s.trc.DropSession(id)
	}
	if tm := s.tel; tm != nil {
		tm.Evictions.Inc()
	}
	close(sess.evict)
	s.logf("session %d: evicted", id)
	return true
}

// Draining reports whether a graceful shutdown is in progress (drives
// /healthz).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
