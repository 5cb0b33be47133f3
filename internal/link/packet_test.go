package link

import (
	"errors"
	"math"
	"testing"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		Seq:         42,
		WindowStart: 512 * 42,
		Measurements: [][]float64{
			{1.5, -2.25, 0, 100.125},
			{0.0078125, 3, -3, 0.5},
			{9, 8, 7, 6},
		},
	}
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := FrameBytes(3, 4); len(frame) != want {
		t.Errorf("frame length %d, want %d", len(frame), want)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != p.Seq || got.WindowStart != p.WindowStart {
		t.Errorf("header mismatch: %+v", got)
	}
	for li := range p.Measurements {
		for i, v := range p.Measurements[li] {
			if got.Measurements[li][i] != v { // all values float32-exact
				t.Errorf("lead %d sample %d: %v != %v", li, i, got.Measurements[li][i], v)
			}
		}
	}
}

func TestEncodeRejectsBadGeometry(t *testing.T) {
	cases := []Packet{
		{},
		{Measurements: [][]float64{}},
		{Measurements: [][]float64{{}}},
		{Measurements: [][]float64{{1, 2}, {1}}},
		{Measurements: [][]float64{make([]float64, MaxMeasurements+1)}},
		{Measurements: make([][]float64, MaxLeads+1)},
	}
	for i, p := range cases {
		if len(p.Measurements) == MaxLeads+1 {
			for li := range p.Measurements {
				p.Measurements[li] = []float64{1}
			}
		}
		if _, err := Encode(p); !errors.Is(err, ErrCodec) {
			t.Errorf("case %d: got %v, want ErrCodec", i, err)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	p := Packet{Seq: 7, Measurements: [][]float64{{1, 2, 3}}}
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation.
	if _, err := Decode(frame[:len(frame)-1]); !errors.Is(err, ErrCodec) {
		t.Errorf("truncated: got %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCodec) {
		t.Errorf("empty: got %v", err)
	}
	// Bad magic.
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, ErrCodec) {
		t.Errorf("bad magic: got %v", err)
	}
	// Flipped payload bit must fail the CRC.
	bad = append([]byte(nil), frame...)
	bad[headerLen] ^= 0x10
	if _, err := Decode(bad); !errors.Is(err, ErrCRC) {
		t.Errorf("corrupted payload: got %v, want ErrCRC", err)
	}
	// Flipped CRC byte likewise.
	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Decode(bad); !errors.Is(err, ErrCRC) {
		t.Errorf("corrupted crc: got %v, want ErrCRC", err)
	}
}

// FuzzPacketDecode exercises the codec against arbitrary frames: Decode
// must never panic, must reject anything whose re-encoding does not
// reproduce the input, and accepted packets must round-trip.
func FuzzPacketDecode(f *testing.F) {
	seed := Packet{Seq: 3, WindowStart: 1024, Measurements: [][]float64{{1, -1, 0.5}, {2, -2, 0.25}}}
	frame, err := Encode(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	traced := seed
	traced.Trace = 0x0000000300000003
	traced.EncodeNs = 42_000
	tframe, err := Encode(traced)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tframe)
	f.Add([]byte{})
	f.Add([]byte{'W', 'L', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	short := append([]byte(nil), frame...)
	f.Add(short[:headerLen+crcLen])
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("accepted packet failed to re-encode: %v", err)
		}
		if len(re) != len(data) {
			t.Fatalf("re-encoded length %d != input %d", len(re), len(data))
		}
		// The float payload survives bit-exactly unless it held a NaN
		// (NaN payload bits are not canonical); compare field-wise.
		q, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded packet rejected: %v", err)
		}
		if q.Seq != p.Seq || q.WindowStart != p.WindowStart || len(q.Measurements) != len(p.Measurements) {
			t.Fatal("round-trip header mismatch")
		}
		if q.Trace != p.Trace || q.EncodeNs != p.EncodeNs {
			t.Fatalf("round-trip trace mismatch: %v/%d vs %v/%d", p.Trace, p.EncodeNs, q.Trace, q.EncodeNs)
		}
		for li := range p.Measurements {
			for i := range p.Measurements[li] {
				a, b := p.Measurements[li][i], q.Measurements[li][i]
				if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("round-trip value mismatch at lead %d sample %d: %v vs %v", li, i, a, b)
				}
			}
		}
	})
}

// FrameBytes returns the encoded size of an untraced (v1) packet with
// the given geometry — what the radio model charges per attempt. The
// ARQ path always puts v1 frames on the air, so this is the charging
// geometry regardless of tracing. The tests use it as the size oracle
// of the encoder.
func FrameBytes(leads, measurementsPerLead int) int {
	return headerLen + 4*leads*measurementsPerLead + crcLen
}
