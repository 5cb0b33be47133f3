// Package netgw turns the in-process gateway into a fault-tolerant
// network service: a TCP server that ingests the internal/link packet
// codec over a length-prefixed framing, one session actor per stream
// (own gateway.Receiver, own link.Reassembler, bounded inbox, panic
// isolation), bounded backpressure that sheds frames instead of
// blocking the accept path, and graceful drain that flushes in-flight
// decode work through the shared gateway.Engine before the process
// exits.
//
// The recovery model is deliberately simple: TCP already gives an
// ordered byte stream, so the only losses the server introduces are the
// ones it chooses (shed frames under backpressure) plus whatever the
// transport fault injector does to a connection (resets, truncation,
// bit flips, slowloris pacing). All of them are absorbed by one
// mechanism — the session survives its connection. A client that loses
// its connection redials, replays its Hello and learns the session's
// resume point (the reassembler's next expected sequence number); shed
// or corrupt frames trigger a rewind Ack that tells the client to
// go-back-N within its bounded in-flight window. Duplicates created by
// either path are absorbed by the reassembler's dedup, so the packets
// reaching gateway.Receiver are exactly the in-order, exactly-once
// stream the in-process path consumes — which is why the per-stream
// digests are bit-identical to library runs even under injected faults.
package netgw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrFrame is returned for structurally invalid frames (bad magic,
// bad version, oversized or undersized payloads).
var ErrFrame = errors.New("netgw: malformed frame")

// Wire framing: every message is
//
//	magic(2)="WG" | version(1) | type(1) | length(4, BE) | payload
//
// The payload of a data frame is one link packet exactly as
// link.Encode produced it (CRC-32 included), so the body-area codec —
// and its corruption detection — is reused verbatim on the wire.
const (
	frameMagic0  = 'W'
	frameMagic1  = 'G'
	frameVersion = 1
	frameHdrLen  = 8
	// maxFramePayload bounds a frame to slightly above the largest
	// encodable link packet, so a corrupted length field cannot make the
	// reader allocate unbounded buffers or swallow the stream.
	maxFramePayload = 1 << 21
)

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	frameHello   = 0x01 // streamID(8)
	frameData    = 0x02 // one link.Encode frame
	frameFin     = 0x03 // total windows(4)
	frameWelcome = 0x81 // streamID(8) | nextSeq(4)
	frameAck     = 0x82 // nextSeq(4) | flags(1)
	frameDigest  = 0x83 // digest(8) | samples(4) | delivered(4) | filled(4) | duplicates(4)
)

// Ack flags.
const (
	// ackFlagRewind asks the client to rewind its send cursor to the
	// acked sequence number: a frame was shed under backpressure or
	// arrived corrupt, and everything from nextSeq on must be resent.
	ackFlagRewind = 1 << 0
)

// writeFrame serialises one frame. The header is stack-allocated; the
// payload is written as-is.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return ErrFrame
	}
	var hdr [frameHdrLen]byte
	hdr[0] = frameMagic0
	hdr[1] = frameMagic1
	hdr[2] = frameVersion
	hdr[3] = typ
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads exactly one frame, reusing buf when it is large
// enough. Structural problems return ErrFrame; short reads surface the
// transport error. The returned payload aliases buf (or a fresh
// allocation) and is only valid until the next call with the same buf.
func readFrame(r io.Reader, buf []byte) (byte, []byte, []byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 || hdr[2] != frameVersion {
		return 0, nil, buf, ErrFrame
	}
	n := int(binary.BigEndian.Uint32(hdr[4:]))
	if n > maxFramePayload {
		return 0, nil, buf, ErrFrame
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if n > 0 {
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, buf, err
		}
	}
	return hdr[3], payload, buf, nil
}

// Control-payload builders and parsers. All fixed-size, all
// big-endian, mirroring the link codec's conventions.

func helloPayload(streamID uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], streamID)
	return b[:]
}

func parseHello(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, ErrFrame
	}
	return binary.BigEndian.Uint64(p), nil
}

func welcomePayload(streamID uint64, nextSeq uint32) []byte {
	var b [12]byte
	binary.BigEndian.PutUint64(b[:], streamID)
	binary.BigEndian.PutUint32(b[8:], nextSeq)
	return b[:]
}

func parseWelcome(p []byte) (uint64, uint32, error) {
	if len(p) != 12 {
		return 0, 0, ErrFrame
	}
	return binary.BigEndian.Uint64(p), binary.BigEndian.Uint32(p[8:]), nil
}

func ackPayload(nextSeq uint32, flags byte) []byte {
	var b [5]byte
	binary.BigEndian.PutUint32(b[:], nextSeq)
	b[4] = flags
	return b[:]
}

func parseAck(p []byte) (uint32, byte, error) {
	if len(p) != 5 {
		return 0, 0, ErrFrame
	}
	return binary.BigEndian.Uint32(p), p[4], nil
}

func finPayload(total uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], total)
	return b[:]
}

func parseFin(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, ErrFrame
	}
	return binary.BigEndian.Uint32(p), nil
}

// StreamReport is the server's end-of-record summary, carried by the
// digest frame: the reconstruction fingerprint plus the reassembly
// counters a client needs to judge the stream's health.
type StreamReport struct {
	// Digest fingerprints the reconstructed multi-lead signal
	// (SignalDigest); equal digests certify bit-identical
	// reconstruction.
	Digest uint64
	// Samples is the per-lead reconstructed length.
	Samples int
	// Delivered, Filled and Duplicates are the session reassembler's
	// counters: windows decoded, gaps zero-filled, duplicate arrivals
	// discarded.
	Delivered  int
	Filled     int
	Duplicates int
}

func (r StreamReport) String() string {
	return fmt.Sprintf("digest %016x samples %d delivered %d filled %d dups %d",
		r.Digest, r.Samples, r.Delivered, r.Filled, r.Duplicates)
}

func digestPayload(rep StreamReport) []byte {
	var b [24]byte
	binary.BigEndian.PutUint64(b[:], rep.Digest)
	binary.BigEndian.PutUint32(b[8:], uint32(rep.Samples))
	binary.BigEndian.PutUint32(b[12:], uint32(rep.Delivered))
	binary.BigEndian.PutUint32(b[16:], uint32(rep.Filled))
	binary.BigEndian.PutUint32(b[20:], uint32(rep.Duplicates))
	return b[:]
}

func parseDigest(p []byte) (StreamReport, error) {
	if len(p) != 24 {
		return StreamReport{}, ErrFrame
	}
	return StreamReport{
		Digest:     binary.BigEndian.Uint64(p),
		Samples:    int(binary.BigEndian.Uint32(p[8:])),
		Delivered:  int(binary.BigEndian.Uint32(p[12:])),
		Filled:     int(binary.BigEndian.Uint32(p[16:])),
		Duplicates: int(binary.BigEndian.Uint32(p[20:])),
	}, nil
}
