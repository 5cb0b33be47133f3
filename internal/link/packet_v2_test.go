package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"wbsn/internal/telemetry/trace"
)

// TestPacketV2RoundTrip: a traced float frame (version 2) still
// decodes, values and trace fields intact, and a traced packet encodes
// as version 4 and round-trips the same fields.
func TestPacketV2RoundTrip(t *testing.T) {
	p := Packet{
		Seq:          9,
		WindowStart:  4608,
		Measurements: [][]float64{{1, -1, 0.5}, {2, -2, 0.25}},
		Trace:        trace.NewID(3, 9),
		EncodeNs:     1_234_000, // µs-aligned so the wire resolution is exact
	}
	coded, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if coded[2] != versionCodedTraced {
		t.Fatalf("version byte %d, want %d", coded[2], versionCodedTraced)
	}
	if want := FrameBytes(2, 3) + traceExtLen; len(coded) != want {
		t.Fatalf("traced frame length %d, want %d", len(coded), want)
	}
	v2 := encodeFloat(p)
	if v2[2] != versionFloatTraced {
		t.Fatalf("float frame version byte %d, want %d", v2[2], versionFloatTraced)
	}
	for _, frame := range [][]byte{coded, v2} {
		got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Trace != p.Trace || got.EncodeNs != p.EncodeNs {
			t.Fatalf("version %d trace fields: got %v/%d, want %v/%d", frame[2], got.Trace, got.EncodeNs, p.Trace, p.EncodeNs)
		}
		if got.Seq != p.Seq || got.WindowStart != p.WindowStart {
			t.Fatalf("version %d header mismatch: %+v", frame[2], got)
		}
		for li := range p.Measurements {
			for i, v := range p.Measurements[li] {
				if got.Measurements[li][i] != v {
					t.Fatalf("version %d lead %d sample %d: %v != %v", frame[2], li, i, got.Measurements[li][i], v)
				}
			}
		}
	}
}

// TestPacketUntracedIsV3 pins the two coded versions: a packet without
// a trace ID encodes as version 3, and its traced encoding differs only
// by the version byte, the extension block and the CRC.
func TestPacketUntracedIsV3(t *testing.T) {
	p := Packet{Seq: 5, WindowStart: 2560, Measurements: [][]float64{{1, 2, 3, 4}}}
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if frame[2] != versionCoded {
		t.Fatalf("untraced version byte %d, want %d", frame[2], versionCoded)
	}
	if len(frame) != FrameBytes(1, 4) {
		t.Fatalf("untraced frame length %d, want %d", len(frame), FrameBytes(1, 4))
	}
	tp := p
	tp.Trace = trace.NewID(1, 5)
	tframe, err := Encode(tp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame[:2], tframe[:2]) || !bytes.Equal(frame[3:headerLen], tframe[3:headerLen]) {
		t.Fatal("traced header diverged beyond the version byte")
	}
	if !bytes.Equal(frame[headerLen:len(frame)-crcLen], tframe[headerLen+traceExtLen:len(tframe)-crcLen]) {
		t.Fatal("traced payload bytes diverged from the untraced ones")
	}
}

func TestPacketV2ZeroTraceRejected(t *testing.T) {
	p := Packet{Seq: 1, Measurements: [][]float64{{1}}, Trace: trace.NewID(1, 1)}
	coded, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out the trace ID and fix the CRC: structurally valid traced
	// frames with the reserved untraced ID — the codec must reject them
	// so decode→encode stays an identity.
	for _, frame := range [][]byte{encodeFloat(p), coded} {
		for i := headerLen; i < headerLen+8; i++ {
			frame[i] = 0
		}
		frame = fixCRC(frame)
		if _, err := Decode(frame); !errors.Is(err, ErrCodec) {
			t.Fatalf("zero-trace version %d frame: got %v, want ErrCodec", frame[2], err)
		}
	}
}

func TestPacketEncodeNsSaturation(t *testing.T) {
	if satMicros(-5) != 0 || satMicros(0) != 0 {
		t.Fatal("negative/zero duration must clamp to 0")
	}
	if satMicros(1500) != 1 {
		t.Fatal("sub-µs truncation")
	}
	if satMicros(1<<62) != 0xffffffff {
		t.Fatal("overflow must saturate")
	}
}

// fixCRC recomputes a frame's trailing checksum after test surgery.
func fixCRC(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	body := len(out) - crcLen
	binary.BigEndian.PutUint32(out[body:], crc32.ChecksumIEEE(out[:body]))
	return out
}
