package netgw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"wbsn/internal/link"
)

// Every control payload must survive a build→parse round trip, and the
// parsers must reject any other length.
func TestControlPayloadRoundTrip(t *testing.T) {
	if id, err := parseHello(helloPayload(0xdeadbeefcafe)); err != nil || id != 0xdeadbeefcafe {
		t.Errorf("hello round trip: id %x err %v", id, err)
	}
	if id, next, err := parseWelcome(welcomePayload(42, 7)); err != nil || id != 42 || next != 7 {
		t.Errorf("welcome round trip: id %d next %d err %v", id, next, err)
	}
	if next, flags, err := parseAck(ackPayload(9, ackFlagRewind)); err != nil || next != 9 || flags != ackFlagRewind {
		t.Errorf("ack round trip: next %d flags %d err %v", next, flags, err)
	}
	if total, err := parseFin(finPayload(31)); err != nil || total != 31 {
		t.Errorf("fin round trip: total %d err %v", total, err)
	}
	rep := StreamReport{Digest: 0x0123456789abcdef, Samples: 5120, Delivered: 10, Filled: 1, Duplicates: 3}
	got, err := parseDigest(digestPayload(rep))
	if err != nil || got != rep {
		t.Errorf("digest round trip: %+v err %v", got, err)
	}
	// Wrong sizes are structural errors, not panics or silent zeroes.
	if _, err := parseHello(nil); !errors.Is(err, ErrFrame) {
		t.Errorf("short hello: %v", err)
	}
	if _, _, err := parseWelcome(make([]byte, 11)); !errors.Is(err, ErrFrame) {
		t.Errorf("short welcome: %v", err)
	}
	if _, _, err := parseAck(make([]byte, 6)); !errors.Is(err, ErrFrame) {
		t.Errorf("long ack: %v", err)
	}
	if _, err := parseFin(make([]byte, 3)); !errors.Is(err, ErrFrame) {
		t.Errorf("short fin: %v", err)
	}
	if _, err := parseDigest(make([]byte, 23)); !errors.Is(err, ErrFrame) {
		t.Errorf("short digest: %v", err)
	}
}

// A frame written by writeFrame must read back with the same type and
// payload, and the reader must reuse a sufficiently large buffer.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xa5}, 4096)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frameData, p); err != nil {
			t.Fatalf("write %d bytes: %v", len(p), err)
		}
		scratch := make([]byte, 8192)
		typ, got, scratch2, err := readFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("read %d bytes: %v", len(p), err)
		}
		if typ != frameData {
			t.Errorf("type %#x, want %#x", typ, frameData)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("payload mismatch at len %d", len(p))
		}
		if len(p) > 0 && &scratch2[0] != &scratch[0] {
			t.Errorf("len %d: reader reallocated despite large scratch buffer", len(p))
		}
	}
}

// Structural violations must come back as ErrFrame; truncation must
// surface the transport error so the caller treats it as a broken
// connection, not a protocol violation.
func TestFrameStructuralErrors(t *testing.T) {
	good := func() []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, frameHello, helloPayload(1)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	badMagic := good()
	badMagic[0] = 'X'
	if _, _, _, err := readFrame(bytes.NewReader(badMagic), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("bad magic: %v, want ErrFrame", err)
	}

	badVersion := good()
	badVersion[2] = 99
	if _, _, _, err := readFrame(bytes.NewReader(badVersion), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("bad version: %v, want ErrFrame", err)
	}

	oversize := good()
	oversize[4], oversize[5], oversize[6], oversize[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, _, err := readFrame(bytes.NewReader(oversize), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("oversize length: %v, want ErrFrame", err)
	}

	truncated := good()[:frameHdrLen+4]
	if _, _, _, err := readFrame(bytes.NewReader(truncated), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload: %v, want ErrUnexpectedEOF", err)
	}

	if err := writeFrame(io.Discard, frameData, make([]byte, maxFramePayload+1)); !errors.Is(err, ErrFrame) {
		t.Errorf("oversize write: %v, want ErrFrame", err)
	}
}

// maxFramePayload must admit the largest packet link.Encode can emit,
// or legitimate data frames would be unsendable.
func TestMaxFramePayloadFitsLinkCodec(t *testing.T) {
	m := make([][]float64, link.MaxLeads)
	per := link.MaxMeasurements / link.MaxLeads
	for i := range m {
		m[i] = make([]float64, per)
	}
	enc, err := link.Encode(link.Packet{Seq: 1, Measurements: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > maxFramePayload {
		t.Fatalf("largest link frame is %d bytes, exceeds maxFramePayload %d", len(enc), maxFramePayload)
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the two wire parsers a
// gateway session runs on untrusted input — readFrame and the link
// packet codec — asserting they never panic and that anything readFrame
// accepts round-trips back to identical bytes. A data frame's packet
// that link.Decode accepts must re-encode to the same bytes, and a
// float packet (link versions 1 and 2) must be link.ErrCodec.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'W', 'G', 1, frameData, 0, 0, 0, 0})
	f.Add([]byte{'W', 'G', 1, frameHello, 0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{'X', 'G', 1, frameData, 0, 0, 0, 1, 0})
	p := link.Packet{Seq: 3, Measurements: [][]float64{{1, 2}, {3, 4}}}
	traced := p
	traced.Trace = 0x0000000300000003
	// A version-1 packet: one lead, one float32 measurement (1.0).
	v1 := []byte{'W', 'L', 1, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 0x3f, 0x80, 0, 0}
	v1 = binary.BigEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	plain, err := link.Encode(p)
	if err != nil {
		f.Fatal(err)
	}
	tenc, err := link.Encode(traced)
	if err != nil {
		f.Fatal(err)
	}
	for _, enc := range [][]byte{plain, tenc, v1} {
		var b bytes.Buffer
		if err := writeFrame(&b, frameData, enc); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, _, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		// Accepted frames must re-encode to the exact bytes consumed.
		var out bytes.Buffer
		if err := writeFrame(&out, typ, payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if want := data[:frameHdrLen+len(payload)]; !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("round trip mismatch: got %x want %x", out.Bytes(), want)
		}
		// The payload parsers must fail cleanly, never panic.
		switch typ {
		case frameHello:
			parseHello(payload)
		case frameFin:
			parseFin(payload)
		case frameWelcome:
			parseWelcome(payload)
		case frameAck:
			parseAck(payload)
		case frameDigest:
			parseDigest(payload)
		case frameData:
			pkt, err := link.Decode(payload)
			float := len(payload) > 2 && (payload[2] == 1 || payload[2] == 2) // the version byte
			switch {
			case float && !errors.Is(err, link.ErrCodec):
				t.Fatalf("float packet version %d: got %v, want ErrCodec", payload[2], err)
			case err == nil:
				if re, err := link.Encode(pkt); err != nil || !bytes.Equal(re, payload) {
					t.Fatalf("packet does not re-encode to its bytes (err %v)", err)
				}
			case !errors.Is(err, link.ErrCodec) && !errors.Is(err, link.ErrCRC):
				t.Fatalf("data decode returned foreign error: %v", err)
			}
		}
	})
}
