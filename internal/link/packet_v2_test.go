package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"wbsn/internal/telemetry/trace"
)

// TestPacketV2RoundTrip: a traced packet encodes as version 4 and
// round-trips its values and trace fields, and the same packet as a
// traced float frame (version 2) is refused.
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
	got, err := Decode(coded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != p.Trace || got.EncodeNs != p.EncodeNs {
		t.Fatalf("trace fields: got %v/%d, want %v/%d", got.Trace, got.EncodeNs, p.Trace, p.EncodeNs)
	}
	if got.Seq != p.Seq || got.WindowStart != p.WindowStart {
		t.Fatalf("header mismatch: %+v", got)
	}
	for li := range p.Measurements {
		for i, v := range p.Measurements[li] {
			if got.Measurements[li][i] != v {
				t.Fatalf("lead %d sample %d: %v != %v", li, i, got.Measurements[li][i], v)
			}
		}
	}
	v2 := encodeFloat(p)
	if v2[2] != versionFloatTraced {
		t.Fatalf("float frame version byte %d, want %d", v2[2], versionFloatTraced)
	}
	if _, err := Decode(v2); !errors.Is(err, ErrCodec) {
		t.Fatalf("version-2 frame: got %v, want ErrCodec", err)
	}
}

// TestDecodeRefusesFloatFrames: a CRC-valid float frame is ErrCodec,
// finite or not. A version-1 frame was the one way a NaN measurement
// reached the gateway — a 3-lead CR-60 window with one NaN decoded, and
// the joint solver spread it to every reconstructed sample.
func TestDecodeRefusesFloatFrames(t *testing.T) {
	leads := make([][]float64, 3)
	for li := range leads {
		leads[li] = make([]float64, 205)
		for i := range leads[li] {
			leads[li][i] = float64(i%7) - 3
		}
	}
	p := Packet{Seq: 7, WindowStart: 3584, Measurements: leads}
	finite := encodeFloat(p)
	leads[1][17] = math.NaN()
	withNaN := encodeFloat(p)
	for name, frame := range map[string][]byte{"finite": finite, "NaN": withNaN} {
		if frame[2] != versionFloat {
			t.Fatalf("%s frame version byte %d, want %d", name, frame[2], versionFloat)
		}
		if _, err := Decode(frame); !errors.Is(err, ErrCodec) {
			t.Errorf("%s version-1 frame: got %v, want ErrCodec", name, err)
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
	// Zero out the trace ID and fix the CRC: a structurally valid traced
	// frame with the reserved untraced ID — the codec must reject it so
	// decode→encode stays an identity.
	for i := headerLen; i < headerLen+8; i++ {
		coded[i] = 0
	}
	if _, err := Decode(fixCRC(coded)); !errors.Is(err, ErrCodec) {
		t.Fatalf("zero-trace version-4 frame: got %v, want ErrCodec", err)
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
