package netgw

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// ErrClient is returned when a stream gives up: the configured number
// of consecutive connection attempts failed without progress, or the
// server resumes the stream beyond the end of the record.
var ErrClient = errors.New("netgw: stream gave up after repeated connection failures")

// ClientConfig parameterises one stream's sender — the wearable side
// of the wire (Ai et al.'s BLE chest belt is the canonical instance):
// it dials, identifies its stream, sends windows under a bounded
// in-flight cap, honours rewind acks, and on any transport failure
// redials with exponential backoff plus jitter and resumes from the
// server's welcome point.
type ClientConfig struct {
	// Addr is the gateway address.
	Addr string
	// StreamID names the session; a reconnect with the same ID resumes
	// the same server-side receiver.
	StreamID uint64
	// Dial overrides the transport (tests inject fault-wrapped
	// connections); nil dials plain TCP.
	Dial func() (net.Conn, error)
	// InFlight caps unacknowledged windows (default 8). It must stay
	// comfortably under the link reassembler's reorder window so a shed
	// frame is rewound before the gap would be declared lost.
	InFlight int
	// Timeout is the per-operation I/O deadline (default 5s): a read or
	// write that cannot finish within it fails the connection over.
	Timeout time.Duration
	// MaxAttempts bounds consecutive connection cycles without progress
	// before the stream gives up (default 10); a cycle in which the
	// server acknowledges windows it had not acknowledged before resets
	// the count.
	MaxAttempts int
	// BackoffBase/BackoffFactor/BackoffMax shape the redial backoff
	// (defaults 20ms, ×2, 2s); jitter draws the actual wait uniformly
	// from [0.5, 1.5)× the nominal value so a fleet of reconnecting
	// clients does not stampede.
	BackoffBase   time.Duration
	BackoffFactor float64
	BackoffMax    time.Duration
	// JitterSeed seeds the backoff jitter and the fault injector.
	JitterSeed int64
	// Faults, when enabled, wraps every dialed connection in the
	// transport fault injector.
	Faults FaultConfig
}

func (c ClientConfig) withDefaults() ClientConfig {
	out := c
	if out.InFlight <= 0 {
		out.InFlight = 8
	}
	if out.Timeout <= 0 {
		out.Timeout = 5 * time.Second
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 10
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 20 * time.Millisecond
	}
	if out.BackoffFactor <= 1 {
		out.BackoffFactor = 2
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 2 * time.Second
	}
	return out
}

// StreamResult summarises one delivered record.
type StreamResult struct {
	// Report is the server's digest frame.
	Report StreamReport
	// Resumes counts re-attaches after the first welcome; Redials all
	// dial attempts beyond the first; Rewinds the go-back-N rewinds
	// honoured; FramesSent every data frame written, retransmits
	// included.
	Resumes    int
	Redials    int
	Rewinds    int
	FramesSent int
}

// SendRecord delivers one record — frames[i] must be the link-encoded
// packet with sequence number i — and returns the server's digest
// report. It survives connection resets, truncated writes, corrupted
// frames and server-side shedding by redialing and resuming; it fails
// when MaxAttempts consecutive connection cycles make no progress, and
// at once when the server resumes the stream beyond the record's end.
func SendRecord(cfg ClientConfig, frames [][]byte) (StreamResult, error) {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.JitterSeed ^ int64(c.StreamID*0x9e3779b97f4a7c15)))
	total := uint32(len(frames))
	var res StreamResult
	var acked uint32 // the furthest point the server has acknowledged
	fails := 0
	attempts := 0
	for {
		if fails >= c.MaxAttempts {
			return res, fmt.Errorf("%w (stream %d, %d attempts)", ErrClient, c.StreamID, fails)
		}
		if attempts > 0 {
			res.Redials++
			backoffSleep(c, rng, fails)
		}
		attempts++
		done, reached, err := runConn(c, rng, frames, total, &res, attempts > 1)
		switch {
		case done:
			return res, nil
		case errors.Is(err, ErrClient):
			return res, err
		case reached > acked:
			// The server acknowledged new windows before the cycle
			// failed: reset the giving-up counter so a long record under
			// a flaky transport is not misread as an unreachable server.
			acked = reached
			fails = 1
		default:
			fails++
		}
	}
}

// backoffSleep waits the jittered exponential backoff for the given
// consecutive-failure count.
func backoffSleep(c ClientConfig, rng *rand.Rand, fails int) {
	d := float64(c.BackoffBase)
	for i := 1; i < fails; i++ {
		d *= c.BackoffFactor
		if d >= float64(c.BackoffMax) {
			d = float64(c.BackoffMax)
			break
		}
	}
	d *= 0.5 + rng.Float64() // jitter: [0.5, 1.5) × nominal
	if d > float64(c.BackoffMax) {
		d = float64(c.BackoffMax)
	}
	time.Sleep(time.Duration(d))
}

// runConn runs one connection cycle: dial, handshake, resume, pump
// windows until the record completes or the connection fails. done
// reports completion; reached is the furthest point the server
// acknowledged in the cycle (its welcome's resume point or an ack); err
// wraps ErrClient when the stream must give up at once.
func runConn(c ClientConfig, rng *rand.Rand, frames [][]byte, total uint32, res *StreamResult, isResume bool) (done bool, reached uint32, err error) {
	conn, err := dialStream(c, rng, frames)
	if err != nil {
		return false, 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.Timeout))
	if err := writeFrame(conn, frameHello, helloPayload(c.StreamID)); err != nil {
		return false, 0, err
	}
	var buf []byte
	typ, payload, buf, err := readFrame(conn, buf)
	if err != nil || typ != frameWelcome {
		if err == nil {
			err = ErrFrame
		}
		return false, 0, err
	}
	id, next, err := parseWelcome(payload)
	if err != nil || id != c.StreamID {
		if err == nil {
			err = ErrFrame
		}
		return false, 0, err
	}
	if next > total {
		// The stream ID is in use by a longer record: no redial can
		// change that.
		return false, next, fmt.Errorf("%w (stream %d: server resumes at frame %d of %d)", ErrClient, c.StreamID, next, total)
	}
	if isResume {
		res.Resumes++
	}
	// The server's welcome point is authoritative: everything before
	// next is decoded (or deduped), everything from next on is owed.
	acked := next
	cursor := next
	finSent := false
	for {
		conn.SetDeadline(time.Now().Add(c.Timeout))
		for cursor < total && cursor-acked < uint32(c.InFlight) {
			if err := writeFrame(conn, frameData, frames[cursor]); err != nil {
				return false, acked, err
			}
			cursor++
			res.FramesSent++
		}
		if acked == total && !finSent {
			if err := writeFrame(conn, frameFin, finPayload(total)); err != nil {
				return false, acked, err
			}
			finSent = true
		}
		typ, payload, buf, err = readFrame(conn, buf)
		if err != nil {
			return false, acked, err
		}
		switch typ {
		case frameAck:
			n, flags, err := parseAck(payload)
			if err != nil {
				return false, acked, err
			}
			acked = n
			if flags&ackFlagRewind != 0 {
				// Go-back-N: everything from the server's next expected
				// sequence number on was shed or corrupt — resend it.
				cursor = n
				res.Rewinds++
			}
			if acked < total {
				finSent = false
			}
		case frameDigest:
			rep, err := parseDigest(payload)
			if err != nil {
				return false, acked, err
			}
			res.Report = rep
			return true, acked, nil
		default:
			return false, acked, ErrFrame
		}
	}
}

// dialStream dials the gateway, injecting the duplicate-reconnect
// fault (a ghost connection replaying the stream's hello plus a few
// stale frames) and wrapping the real connection in the transport
// fault injector when faults are enabled.
func dialStream(c ClientConfig, rng *rand.Rand, frames [][]byte) (net.Conn, error) {
	if c.Faults.PDupHello > 0 && rng.Float64() < c.Faults.PDupHello {
		ghostHello(c, frames)
	}
	dial := c.Dial
	if dial == nil {
		dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", c.Addr, c.Timeout)
		}
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	if c.Faults.Enabled() {
		conn = c.Faults.wrap(conn, rng)
	}
	return conn, nil
}

// ghostHello opens a short-lived duplicate connection for the stream —
// the "phone re-attached twice" scenario: it replays the hello and up
// to three stale frames, then vanishes. The server's latest-wins attach
// policy and the reassembler's dedup must absorb it without perturbing
// the real connection's stream.
func ghostHello(c ClientConfig, frames [][]byte) {
	conn, err := net.DialTimeout("tcp", c.Addr, c.Timeout)
	if err != nil {
		return
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.Timeout))
	if err := writeFrame(conn, frameHello, helloPayload(c.StreamID)); err != nil {
		return
	}
	for i := 0; i < 3 && i < len(frames); i++ {
		if err := writeFrame(conn, frameData, frames[i]); err != nil {
			return
		}
	}
	// Give the server a moment to process the ghost attach before the
	// real dial supersedes it.
	time.Sleep(time.Millisecond)
}
