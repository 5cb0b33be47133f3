// Package link models the lossy body-area radio link between the
// sensor node and the gateway — the part of the paper's architecture
// the energy ladder (Figure 1) silently assumes to be perfect. It
// provides:
//
//   - a sequence-numbered packet codec with CRC-32 integrity
//     (packet.go), so corrupted frames are detected rather than
//     consumed;
//   - a deterministic Gilbert–Elliott burst-loss channel with
//     state-dependent bit errors, duplication and reordering
//     (channel.go), the canonical model for fading body-area links;
//   - a stop-and-wait ARQ sender with bounded retries and exponential
//     backoff whose every transmission attempt is charged through the
//     energy radio model (arq.go), plus a receiver-side Reassembler
//     that handles duplicates, out-of-order arrivals and declared
//     gaps;
//   - per-lead signal-fault injection — lead-off flatline, rail
//     saturation, spike artifacts (faults.go) — and a per-lead
//     signal-quality index for gating faulted electrodes out of the
//     analysis chain (sqi.go).
//
// Everything is seedable and deterministic so degraded-condition
// experiments are exactly reproducible.
package link

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

	"wbsn/internal/telemetry/trace"
)

// Codec errors.
var (
	// ErrCodec is returned for structurally malformed packets (bad
	// magic, impossible sizes, truncation).
	ErrCodec = errors.New("link: malformed packet")
	// ErrCRC is returned when a packet's checksum does not match its
	// contents — the frame was corrupted in flight.
	ErrCRC = errors.New("link: packet CRC mismatch")
)

// Wire-format constants. Version 1 is the original frame; version 2
// inserts a 12-byte trace extension — trace id (8) plus the node-side
// encode duration in µs (4) — between the header and the payload.
// Encode emits v2 only for traced packets, so untraced traffic is
// byte-identical to version 1 and old decoders keep working on it;
// Decode accepts both versions.
const (
	packetMagic0        = 'W'
	packetMagic1        = 'L'
	packetVersion       = 1
	packetVersionTraced = 2
	headerLen           = 14 // magic(2) version(1) leads(1) seq(4) window(4) mlen(2)
	traceExtLen         = 12 // trace(8) encode_us(4)
	crcLen              = 4
	// MaxLeads bounds the lead count a packet may carry.
	MaxLeads = 64
	// MaxMeasurements bounds the per-lead measurement count.
	MaxMeasurements = 4096
)

// Packet is one radio payload: the CS measurements (or raw samples) of
// one acquisition window for every lead, tagged with a sequence number
// so the receiver can detect duplicates, reordering and gaps.
type Packet struct {
	// Seq is the link-layer sequence number, assigned monotonically by
	// the sender.
	Seq uint32
	// WindowStart is the absolute sample index of the window's first
	// sample, so a late-joining receiver can align the stream.
	WindowStart uint32
	// Measurements holds one equal-length vector per lead.
	Measurements [][]float64
	// Trace, when nonzero, is the window's end-to-end trace ID and
	// selects the v2 frame format. The ARQ path never sets it on the
	// wire (trace bytes would change the frame length and with it the
	// bit-error channel's corruption odds — see Link.SendTraced); the
	// TCP transport embeds it freely.
	Trace trace.ID
	// EncodeNs is the node-side encode span duration carried with the
	// trace (µs resolution on the wire), letting the gateway reconstruct
	// the remote encode span without a shared clock.
	EncodeNs int64
}

// Encode serialises the packet: a fixed header, lead-major float32
// payload, and a trailing CRC-32 (IEEE) over everything before it.
func Encode(p Packet) ([]byte, error) {
	leads := len(p.Measurements)
	if leads < 1 || leads > MaxLeads {
		return nil, ErrCodec
	}
	mlen := len(p.Measurements[0])
	if mlen < 1 || mlen > MaxMeasurements {
		return nil, ErrCodec
	}
	for _, l := range p.Measurements {
		if len(l) != mlen {
			return nil, ErrCodec
		}
	}
	ext := 0
	if p.Trace != 0 {
		ext = traceExtLen
	}
	buf := make([]byte, headerLen+ext+4*leads*mlen+crcLen)
	buf[0] = packetMagic0
	buf[1] = packetMagic1
	buf[2] = packetVersion
	buf[3] = byte(leads)
	binary.BigEndian.PutUint32(buf[4:], p.Seq)
	binary.BigEndian.PutUint32(buf[8:], p.WindowStart)
	binary.BigEndian.PutUint16(buf[12:], uint16(mlen))
	off := headerLen
	if ext > 0 {
		buf[2] = packetVersionTraced
		binary.BigEndian.PutUint64(buf[off:], uint64(p.Trace))
		binary.BigEndian.PutUint32(buf[off+8:], satMicros(p.EncodeNs))
		off += ext
	}
	for _, l := range p.Measurements {
		for _, v := range l {
			binary.BigEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
			off += 4
		}
	}
	binary.BigEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf, nil
}

// Decode parses and validates one frame. Structural problems return
// ErrCodec; an intact structure with a bad checksum returns ErrCRC
// (the receiver treats both as "frame not received" and lets ARQ
// recover it).
func Decode(b []byte) (Packet, error) {
	if len(b) < headerLen+crcLen {
		return Packet{}, ErrCodec
	}
	if b[0] != packetMagic0 || b[1] != packetMagic1 {
		return Packet{}, ErrCodec
	}
	ext := 0
	switch b[2] {
	case packetVersion:
	case packetVersionTraced:
		ext = traceExtLen
	default:
		return Packet{}, ErrCodec
	}
	leads := int(b[3])
	mlen := int(binary.BigEndian.Uint16(b[12:]))
	if leads < 1 || leads > MaxLeads || mlen < 1 || mlen > MaxMeasurements {
		return Packet{}, ErrCodec
	}
	want := headerLen + ext + 4*leads*mlen + crcLen
	if len(b) != want {
		return Packet{}, ErrCodec
	}
	body := len(b) - crcLen
	if crc32.ChecksumIEEE(b[:body]) != binary.BigEndian.Uint32(b[body:]) {
		return Packet{}, ErrCRC
	}
	p := Packet{
		Seq:          binary.BigEndian.Uint32(b[4:]),
		WindowStart:  binary.BigEndian.Uint32(b[8:]),
		Measurements: make([][]float64, leads),
	}
	off := headerLen
	if ext > 0 {
		p.Trace = trace.ID(binary.BigEndian.Uint64(b[off:]))
		// A v2 frame carrying the reserved zero trace ID is malformed:
		// untraced packets canonically encode as v1 (keeps decode→encode
		// an identity for the fuzz harness).
		if p.Trace == 0 {
			return Packet{}, ErrCodec
		}
		p.EncodeNs = int64(binary.BigEndian.Uint32(b[off+8:])) * 1000
		off += ext
	}
	for li := range p.Measurements {
		l := make([]float64, mlen)
		for i := range l {
			l[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(b[off:])))
			off += 4
		}
		p.Measurements[li] = l
	}
	return p, nil
}

// satMicros converts a nanosecond duration to saturating uint32
// microseconds (the wire resolution of the v2 encode-duration field).
func satMicros(ns int64) uint32 {
	if ns <= 0 {
		return 0
	}
	us := ns / 1000
	if us > 0xffffffff {
		return 0xffffffff
	}
	return uint32(us)
}
