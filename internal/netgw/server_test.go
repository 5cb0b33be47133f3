package netgw

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
)

// testSeed is the shared sensing-matrix seed: the server and the load
// generator both derive their configuration from it, exactly like a
// deployed firmware pair.
const testSeed = 77

// testGatewayConfig is the server-side decode configuration the e2e
// tests run with: fast solver, early exit, cold start.
func testGatewayConfig(t testing.TB) gateway.Config {
	t.Helper()
	_, gcfg, err := GatewayConfigFor(testSeed, 60, 40, 1e-3, false)
	if err != nil {
		t.Fatal(err)
	}
	return gcfg
}

// startServer boots a gateway server on a loopback port with a full
// telemetry set attached; mut tweaks the configuration before Serve.
func startServer(t testing.TB, mut func(*ServerConfig)) (*Server, *telemetry.Set) {
	t.Helper()
	set := telemetry.NewSet(telemetry.NewRegistry())
	cfg := ServerConfig{
		Addr:          "127.0.0.1:0",
		Gateway:       testGatewayConfig(t),
		EngineWorkers: 2,
		Telemetry:     set,
		Logf:          t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, set
}

// testLoadgen is the loadgen template matched to testGatewayConfig:
// same seed, same solver, verification on, short client timeouts so
// recovery paths run at test speed.
func testLoadgen(addr string, streams, records int) LoadgenConfig {
	return LoadgenConfig{
		Addr:        addr,
		Streams:     streams,
		Records:     records,
		DurationS:   4, // two CS windows per record
		Seed:        testSeed,
		SolverIters: 40,
		SolverTol:   1e-3,
		Verify:      true,
		Client: ClientConfig{
			Timeout:     2 * time.Second,
			MaxAttempts: 20,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
		},
	}
}

// The correctness bar of the whole package: per-stream reconstruction
// digests from the networked path must be bit-identical to the
// in-process gateway.Receiver path.
func TestNetGatewayCleanBitIdentity(t *testing.T) {
	srv, set := startServer(t, nil)
	cfg := testLoadgen(srv.Addr(), 4, 2)
	res, err := RunLoadgen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.Mismatches != 0 {
		t.Fatalf("clean run: %s", res)
	}
	if res.RecordsDone != 4 {
		t.Fatalf("records done %d, want 4 (%s)", res.RecordsDone, res)
	}
	tm := set.NetGW
	if got := tm.SessionsFinished.Value(); got != 4 {
		t.Errorf("sessions finished %d, want 4", got)
	}
	if got := tm.Delivered.Value(); got != uint64(res.WindowsDone) {
		t.Errorf("windows delivered %d, want %d", got, res.WindowsDone)
	}
	if tm.FramesShed.Value() != 0 || tm.FramesCorrupt.Value() != 0 || tm.ProtocolErrors.Value() != 0 {
		t.Errorf("clean run saw shed %d corrupt %d proto %d",
			tm.FramesShed.Value(), tm.FramesCorrupt.Value(), tm.ProtocolErrors.Value())
	}
}

// The same bar under an adversarial transport: connection resets,
// truncated writes, bit flips, slowloris pacing and duplicate
// reconnects must all be absorbed — zero digest mismatches — and the
// faults must demonstrably have fired.
func TestNetGatewayFaultInjection(t *testing.T) {
	srv, set := startServer(t, func(c *ServerConfig) {
		c.IdleTimeout = 5 * time.Second
	})
	cfg := testLoadgen(srv.Addr(), 8, 2)
	cfg.Client.Faults = FaultConfig{
		PReset:     0.08,
		PTruncate:  0.08,
		PBitFlip:   0.12,
		PSlowloris: 0.05,
		PDupHello:  0.5,
		SlowChunk:  256,
		SlowDelay:  time.Millisecond,
	}
	cfg.Logf = t.Logf
	res, err := RunLoadgen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 {
		t.Fatalf("digest mismatches under faults: %s", res)
	}
	if res.Failures != 0 {
		t.Fatalf("stream failures under faults: %s", res)
	}
	if res.RecordsDone != 8 {
		t.Fatalf("records done %d, want 8 (%s)", res.RecordsDone, res)
	}
	tm := set.NetGW
	faultEvents := res.Redials + res.Rewinds + res.Resumes +
		int(tm.FramesCorrupt.Value()) + int(tm.ProtocolErrors.Value())
	if faultEvents == 0 {
		t.Errorf("fault injector fired nothing (%s) — probabilities too low for the traffic volume", res)
	}
	t.Logf("fault run: %s (corrupt %d, proto errors %d, resumes(srv) %d)",
		res, tm.FramesCorrupt.Value(), tm.ProtocolErrors.Value(), tm.Resumes.Value())
}

// Backpressure contract: a decoder slower than the wire fills the
// bounded inbox, frames are shed (never blocking the reader), the
// rewind ack recovers them, and the digest still matches bit for bit.
func TestNetGatewayBackpressureShed(t *testing.T) {
	srv, set := startServer(t, func(c *ServerConfig) {
		c.InboxDepth = 1
		c.AckEvery = 1
		// Slow every decode enough that an eager client overruns the
		// one-slot inbox.
		c.poison = func(uint64, link.Packet) { time.Sleep(30 * time.Millisecond) }
	})
	cfg := testLoadgen(srv.Addr(), 1, 1)
	cfg.DurationS = 8 // four windows, so the client can run ahead
	cfg.Client.InFlight = 8
	res, err := RunLoadgen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.Mismatches != 0 || res.RecordsDone != 1 {
		t.Fatalf("shed run: %s", res)
	}
	tm := set.NetGW
	if tm.FramesShed.Value() == 0 {
		t.Errorf("no frames shed: inbox depth 1 with slow decode should overrun (%s)", res)
	}
	if res.Rewinds == 0 {
		t.Errorf("shed frames recovered without a rewind? (%s)", res)
	}
	t.Logf("shed run: %s (shed %d)", res, tm.FramesShed.Value())
}

// Graceful drain: Shutdown under live load stops accepting, flushes
// what was already accepted and returns within the context deadline;
// afterwards the port is closed.
func TestNetGatewayGracefulDrain(t *testing.T) {
	srv, set := startServer(t, nil)
	cfg := testLoadgen(srv.Addr(), 4, 2)
	cfg.RunFor = 10 * time.Second
	cfg.Client.MaxAttempts = 2
	cfg.Client.BackoffMax = 20 * time.Millisecond
	done := make(chan *LoadgenResult, 1)
	go func() {
		res, _ := RunLoadgen(cfg)
		done <- res
	}()
	// Shut down only once records have demonstrably flowed — fixed
	// sleeps are too fragile under -race, where traffic synthesis alone
	// can take seconds.
	waitUntil := time.Now().Add(8 * time.Second)
	for set.NetGW.SessionsFinished.Value() < 2 {
		if time.Now().After(waitUntil) {
			t.Fatalf("no sessions finished before the drain (finished %d)", set.NetGW.SessionsFinished.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // let the digest frames reach their clients
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if set.NetGW.DrainNs.Value() <= 0 {
		t.Error("drain duration gauge not set")
	}
	if _, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		t.Error("dial succeeded after Shutdown, want refused")
	}
	res := <-done
	if res == nil {
		t.Fatal("loadgen returned nil")
	}
	if res.Mismatches != 0 {
		t.Fatalf("mismatches across drain: %s", res)
	}
	if res.RecordsDone == 0 {
		t.Errorf("no records completed before the drain (%s)", res)
	}
	// Second Shutdown is a safe no-op.
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	t.Logf("drain: %.1fms, %s", float64(set.NetGW.DrainNs.Value())/1e6, res)
}

// Panic isolation: one poisoned stream must kill only its own session
// actor; the client redials into a fresh session and completes, and
// every other stream is untouched.
func TestNetGatewayPanicIsolation(t *testing.T) {
	var poisoned atomic.Bool
	srv, set := startServer(t, func(c *ServerConfig) {
		c.poison = func(id uint64, _ link.Packet) {
			// Poison exactly one delivery of one stream (ids are
			// idBase+n; n==1 is the second stream).
			if id&0xffffffff == 1 && poisoned.CompareAndSwap(false, true) {
				panic("poisoned packet")
			}
		}
	})
	cfg := testLoadgen(srv.Addr(), 4, 2)
	cfg.Client.Timeout = time.Second
	res, err := RunLoadgen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.Mismatches != 0 || res.RecordsDone != 4 {
		t.Fatalf("panic run: %s", res)
	}
	if got := set.NetGW.SessionPanics.Value(); got != 1 {
		t.Errorf("session panics %d, want 1", got)
	}
	if res.Redials == 0 {
		t.Errorf("poisoned stream completed without redialing? (%s)", res)
	}
}

// A slowloris client that stalls mid-frame must be cut by the per-frame
// read deadline — it cannot hold a reader goroutine forever.
func TestNetGatewaySlowClientCut(t *testing.T) {
	srv, _ := startServer(t, func(c *ServerConfig) {
		c.IdleTimeout = 200 * time.Millisecond
	})
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameHello, helloPayload(99)); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := readFrame(conn, nil)
	if err != nil || typ != frameWelcome {
		t.Fatalf("handshake: type %#x err %v", typ, err)
	}
	// Half a data-frame header, then silence.
	if _, err := conn.Write([]byte{'W', 'G', frameVersion, frameData}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("expected server-side close, got local deadline: %v", err)
	}
	if cut := time.Since(start); cut > 2*time.Second {
		t.Errorf("stalled connection cut after %v, want ~IdleTimeout (200ms)", cut)
	}
}

// A session whose client vanishes must expire after SessionTTL and
// return its receiver to the pool.
func TestNetGatewaySessionExpiry(t *testing.T) {
	srv, set := startServer(t, func(c *ServerConfig) {
		c.IdleTimeout = 100 * time.Millisecond
		c.SessionTTL = 300 * time.Millisecond
	})
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, helloPayload(7)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readFrame(conn, nil); err != nil || typ != frameWelcome {
		t.Fatalf("handshake: type %#x err %v", typ, err)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for set.NetGW.SessionsExpired.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session did not expire (active %d)", set.NetGW.SessionsActive.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := set.NetGW.SessionsActive.Value(); got != 0 {
		t.Errorf("sessions active after expiry = %d, want 0", got)
	}
}

// Every session decodes through the shared engine: a negative worker
// count is a configuration error, not a request for another decode path.
func TestServeRejectsNegativeWorkers(t *testing.T) {
	srv, err := Serve(ServerConfig{Addr: "127.0.0.1:0", Gateway: testGatewayConfig(t), EngineWorkers: -1})
	if !errors.Is(err, ErrServer) {
		if srv != nil {
			srv.Close()
		}
		t.Fatalf("Serve with EngineWorkers -1: err = %v, want ErrServer", err)
	}
}

// One CRC-valid frame whose sequence number lies far ahead of the
// session must not zero-fill the stream up to it (about 50 MB for seq
// 4096 at 3×512): the session drops the frame and answers with a rewind
// ack to its unchanged resume point, and the real record then completes
// with its reference digest and nothing filled.
func TestNetGatewayFarSeqFrameFillsNothing(t *testing.T) {
	srv, _ := startServer(t, nil)
	cfg := testLoadgen(srv.Addr(), 1, 1).withDefaults()
	tr, err := buildTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := tr.frames[0]
	pkt, err := link.Decode(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	pkt.Seq = 4096
	far, err := link.Encode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	const id = 4096
	conn := dialSession(t, srv.Addr(), id)
	if err := writeFrame(conn, frameData, far); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := readFrame(conn, nil)
	if err != nil || typ != frameAck {
		t.Fatalf("answer to the far frame: type %#x err %v", typ, err)
	}
	next, flags, err := parseAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if next != 0 || flags&ackFlagRewind == 0 {
		t.Fatalf("far frame acked with nextSeq %d flags %#x, want a rewind ack to 0", next, flags)
	}
	conn.Close()

	ccfg := cfg.Client
	ccfg.Addr = srv.Addr()
	ccfg.StreamID = id
	res, err := SendRecord(ccfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Digest != tr.digests[0] || res.Report.Filled != 0 {
		t.Fatalf("record after the far frame: %s, want digest %016x with nothing filled", res.Report, tr.digests[0])
	}
}

// TestSendRecordGivesUpBeyondTheRecord: a stream ID reused for a
// shorter record is welcomed at the first session's resume point, past
// the new record's last frame. No redial can change that, so SendRecord
// must return ErrClient at once instead of redialing forever (a welcome
// alone is not progress; only an ack that advances is).
func TestSendRecordGivesUpBeyondTheRecord(t *testing.T) {
	srv, _ := startServer(t, nil)
	cfg := testLoadgen(srv.Addr(), 1, 1)
	cfg.DurationS = 8 // four CS windows
	cfg = cfg.withDefaults()
	tr, err := buildTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := tr.frames[0]
	if len(frames) != 4 {
		t.Fatalf("record has %d windows, want 4", len(frames))
	}
	ccfg := cfg.Client
	ccfg.Addr = srv.Addr()
	ccfg.StreamID = 7
	if _, err := SendRecord(ccfg, frames); err != nil {
		t.Fatal(err)
	}
	ccfg.Timeout = 300 * time.Millisecond
	start := time.Now()
	res, err := SendRecord(ccfg, frames[:2])
	if !errors.Is(err, ErrClient) {
		t.Fatalf("2-window record under a 4-window stream ID: err %v, want ErrClient", err)
	}
	if took := time.Since(start); took > 5*time.Second || res.Redials != 0 {
		t.Fatalf("gave up after %v and %d redials, want at once", took, res.Redials)
	}
}
