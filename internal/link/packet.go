// Package link models the lossy body-area radio link between the
// sensor node and the gateway — the part of the paper's architecture
// the energy ladder (Figure 1) silently assumes to be perfect. It
// provides:
//
//   - a sequence-numbered packet codec (packet.go) that carries each
//     lead's measurements as 12-bit codes under one power-of-two
//     exponent, with CRC-32 integrity so corrupted frames are detected
//     rather than consumed;
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

	"wbsn/internal/energy"
	"wbsn/internal/telemetry/trace"
)

// Codec errors.
var (
	// ErrCodec is returned for structurally malformed packets (bad
	// magic, impossible sizes, truncation, non-canonical codes) and for
	// measurements the wire cannot carry (NaN, ±Inf, beyond ±2047·2^127).
	ErrCodec = errors.New("link: malformed packet")
	// ErrCRC is returned when a packet's checksum does not match its
	// contents — the frame was corrupted in flight.
	ErrCRC = errors.New("link: packet CRC mismatch")
)

// Wire-format constants. A frame opens with a 14-byte header; version 4
// then inserts a 12-byte trace extension — trace id (8) plus the
// node-side encode duration in µs (4) — that version 3 omits. The
// payload is one exponent byte per lead, then every lead's 12-bit
// measurement codes, bit-packed big-endian in lead-major order with the
// last byte zero-padded. Versions 1 and 2, which carried each
// measurement as a float32 and so could carry NaN and ±Inf, are
// refused.
const (
	packetMagic0       = 'W'
	packetMagic1       = 'L'
	versionCoded       = 3
	versionCodedTraced = 4
	headerLen          = 14 // magic(2) version(1) leads(1) seq(4) window(4) mlen(2)
	traceExtLen        = 12 // trace(8) encode_us(4)
	crcLen             = 4
	// MaxLeads bounds the lead count a packet may carry.
	MaxLeads = 64
	// MaxMeasurements bounds the per-lead measurement count.
	MaxMeasurements = 4096
)

// The wire quantiser. A lead travels as codes c in [-2047, 2047] under
// one power-of-two exponent e, each value being c·2^e. The exponent is
// the smallest (at least minExp) at which the lead's peak rounds into
// range, so unless e is minExp the peak code is at least halfCode.
const (
	codeMax  = 1<<(energy.SampleBits-1) - 1
	halfCode = 1 << (energy.SampleBits - 2)
	codeMask = 1<<energy.SampleBits - 1
	minExp   = math.MinInt8
	maxExp   = math.MaxInt8
)

// Packet is one radio payload: the CS measurements of one acquisition
// window for every lead, tagged with a sequence number so the receiver
// can detect duplicates, reordering and gaps.
type Packet struct {
	// Seq is the link-layer sequence number, assigned monotonically by
	// the sender.
	Seq uint32
	// WindowStart is the absolute sample index of the window's first
	// sample, so a late-joining receiver can align the stream.
	WindowStart uint32
	// Measurements holds one equal-length vector per lead. Encode
	// rounds them onto the wire grid (QuantizeLead).
	Measurements [][]float64
	// Trace, when nonzero, is the window's end-to-end trace ID and
	// selects the traced frame format. The ARQ path never sets it on the
	// wire (trace bytes would change the frame length and with it the
	// bit-error channel's corruption odds — see Link.SendTraced); the
	// TCP transport embeds it freely.
	Trace trace.ID
	// EncodeNs is the node-side encode span duration carried with the
	// trace (µs resolution on the wire), letting the gateway reconstruct
	// the remote encode span without a shared clock.
	EncodeNs int64
}

// QuantizeLead rounds one lead's measurements in place onto the 12-bit
// wire grid. It returns ErrCodec, leaving v unchanged, if a value is
// not finite or too large to carry. The grid of a rounded lead is the
// grid it was rounded on, so rounding again changes no bit: the node
// rounds its measurements with it, Encode re-derives the same codes,
// and Decode returns the node's values exactly.
func QuantizeLead(v []float64) error {
	e, err := leadExp(v)
	if err != nil {
		return err
	}
	down, up := pow2(-e), pow2(e)
	for i, x := range v {
		v[i] = float64(code(x, down)) * up
	}
	return nil
}

// leadExp returns the wire exponent of one lead: the smallest e ≥
// minExp at which every value rounds to a code of magnitude ≤ codeMax.
func leadExp(v []float64) (int, error) {
	peak := 0.0
	for _, x := range v {
		a := math.Abs(x)
		if !(a <= math.MaxFloat64) { // NaN or ±Inf
			return 0, ErrCodec
		}
		if a > peak {
			peak = a
		}
	}
	// peak = f·2^k with f in [0.5, 1), k its biased exponent less 1022
	// (a subnormal peak reads a smaller k, and clamps to minExp anyway).
	k := int(math.Float64bits(peak)>>52) - 1022
	e := k - (energy.SampleBits - 1) // peak·2^-e in [2^10, 2^11); e ≤ 1013
	if e < minExp {
		return minExp, nil
	}
	if code(peak, pow2(-e)) > codeMax {
		e++ // the peak rounded up to 2^11
	}
	if e > maxExp {
		return 0, ErrCodec
	}
	return e, nil
}

// code rounds x·down (down = 2^-e) to its integer code, half away from
// zero. The integer conversion also maps -0 to 0.
func code(x, down float64) int32 { return int32(math.Round(x * down)) }

// pow2 returns 2^e for a normal-range exponent e.
func pow2(e int) float64 { return math.Float64frombits(uint64(e+1023) << 52) }

// Encode serialises the packet as a coded frame: the header, the trace
// extension for a traced packet, the per-lead exponents and 12-bit
// codes, and a trailing CRC-32 (IEEE) over everything before it.
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
	buf := make([]byte, FrameBytes(leads, mlen)+ext)
	buf[0] = packetMagic0
	buf[1] = packetMagic1
	buf[2] = versionCoded
	buf[3] = byte(leads)
	binary.BigEndian.PutUint32(buf[4:], p.Seq)
	binary.BigEndian.PutUint32(buf[8:], p.WindowStart)
	binary.BigEndian.PutUint16(buf[12:], uint16(mlen))
	off := headerLen
	if ext > 0 {
		buf[2] = versionCodedTraced
		binary.BigEndian.PutUint64(buf[off:], uint64(p.Trace))
		binary.BigEndian.PutUint32(buf[off+8:], satMicros(p.EncodeNs))
		off += ext
	}
	exps := buf[off : off+leads]
	off += leads
	var acc uint32 // bit accumulator; its low nbits bits are unwritten
	nbits := 0
	for li, l := range p.Measurements {
		e, err := leadExp(l)
		if err != nil {
			return nil, err
		}
		exps[li] = byte(int8(e))
		down := pow2(-e)
		for _, x := range l {
			acc = acc<<energy.SampleBits | uint32(code(x, down))&codeMask
			for nbits += energy.SampleBits; nbits >= 8; off++ {
				nbits -= 8
				buf[off] = byte(acc >> nbits)
			}
		}
	}
	if nbits > 0 {
		buf[off] = byte(acc << (8 - nbits))
		off++
	}
	binary.BigEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf, nil
}

// codeBytes is the size of the packed code block.
func codeBytes(leads, mlen int) int { return (leads*mlen*energy.SampleBits + 7) / 8 }

// FrameBytes returns the encoded size of an untraced packet with the
// given geometry — what the radio model charges per attempt. The ARQ
// path never puts the trace extension on the air, so this is the
// charging geometry regardless of tracing.
func FrameBytes(leads, measurementsPerLead int) int {
	return headerLen + leads + codeBytes(leads, measurementsPerLead) + crcLen
}

// Decode parses and validates one frame. Structural problems return
// ErrCodec; an intact structure with a bad checksum returns ErrCRC (the
// receiver treats both as "frame not received" and lets ARQ recover
// it). A frame must be the one Encode writes for its values: a version
// other than 3 or 4, a code of -2048, an exponent above the smallest
// that fits its lead or nonzero padding is ErrCodec.
func Decode(b []byte) (Packet, error) {
	if len(b) < headerLen+crcLen {
		return Packet{}, ErrCodec
	}
	if b[0] != packetMagic0 || b[1] != packetMagic1 {
		return Packet{}, ErrCodec
	}
	version := b[2]
	if version < versionCoded || version > versionCodedTraced {
		return Packet{}, ErrCodec
	}
	ext := 0
	if version == versionCodedTraced {
		ext = traceExtLen
	}
	leads := int(b[3])
	mlen := int(binary.BigEndian.Uint16(b[12:]))
	if leads < 1 || leads > MaxLeads || mlen < 1 || mlen > MaxMeasurements ||
		len(b) != FrameBytes(leads, mlen)+ext {
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
		// A traced frame carrying the reserved zero trace ID is
		// malformed: untraced packets encode without the extension
		// (keeps decode→encode an identity for the fuzz harness).
		if p.Trace == 0 {
			return Packet{}, ErrCodec
		}
		p.EncodeNs = int64(binary.BigEndian.Uint32(b[off+8:])) * 1000
		off += ext
	}
	// The exponents, then the packed codes. Any code or exponent Encode
	// would not write is refused.
	exps, codes := b[off:off+leads], b[off+leads:body]
	var acc uint32 // bit accumulator; its low nbits bits are unread
	nbits := 0
	for li := range p.Measurements {
		e := int(int8(exps[li]))
		up := pow2(e)
		l := make([]float64, mlen)
		var peak int32
		for i := range l {
			for ; nbits < energy.SampleBits; nbits += 8 {
				acc = acc<<8 | uint32(codes[0])
				codes = codes[1:]
			}
			nbits -= energy.SampleBits
			c := int32(acc>>nbits&codeMask<<(32-energy.SampleBits)) >> (32 - energy.SampleBits)
			if c < -codeMax {
				return Packet{}, ErrCodec
			}
			peak = max(peak, c, -c)
			l[i] = float64(c) * up
		}
		if peak < halfCode && e != minExp {
			return Packet{}, ErrCodec
		}
		p.Measurements[li] = l
	}
	if acc&(1<<nbits-1) != 0 {
		return Packet{}, ErrCodec // nonzero padding
	}
	return p, nil
}

// satMicros converts a nanosecond duration to saturating uint32
// microseconds (the wire resolution of the encode-duration field).
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
