package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
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
			if got.Measurements[li][i] != v { // all values on the 12-bit grid
				t.Errorf("lead %d sample %d: %v != %v", li, i, got.Measurements[li][i], v)
			}
		}
	}
}

// TestEncodeRoundsOntoTheGrid: arbitrary measurements come back as
// QuantizeLead rounds them — each within half a code step of the input
// — and a second round trip changes no bit.
func TestEncodeRoundsOntoTheGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Packet{Seq: 1, Measurements: make([][]float64, 3)}
	for li := range p.Measurements {
		l := make([]float64, 205)
		scale := math.Ldexp(1, li*7-6)
		for i := range l {
			l[i] = rng.NormFloat64() * scale
		}
		p.Measurements[li] = l
	}
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != FrameBytes(3, 205) || FrameBytes(3, 205) != 944 {
		t.Fatalf("3x205 frame is %d bytes, want 944", len(frame))
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range p.Measurements {
		want := append([]float64(nil), l...)
		if err := QuantizeLead(want); err != nil {
			t.Fatal(err)
		}
		peak := 0.0
		for _, v := range l {
			peak = max(peak, math.Abs(v))
		}
		for i, v := range l {
			if math.Float64bits(got.Measurements[li][i]) != math.Float64bits(want[i]) {
				t.Fatalf("lead %d value %d decoded %v, QuantizeLead %v", li, i, got.Measurements[li][i], want[i])
			}
			if d := math.Abs(want[i] - v); d > peak/2048 {
				t.Fatalf("lead %d value %d rounded by %v, more than half a step of peak %v", li, i, d, peak)
			}
		}
	}
	again, err := Encode(got)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("re-encoding the decoded packet changed the frame (err %v)", err)
	}
}

// TestQuantizeLead pins the quantiser's grid: the smallest exponent at
// which the peak fits, rounding that changes no bit when repeated, and
// the values the wire cannot carry.
func TestQuantizeLead(t *testing.T) {
	exp := func(v []float64) int {
		t.Helper()
		e, err := leadExp(v)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cases := []struct {
		in   []float64
		want []float64
		exp  int
	}{
		{[]float64{2047, -1}, []float64{2047, -1}, 0},
		{[]float64{2047.5, 1}, []float64{2048, 2}, 1}, // the peak rounds up to 2^11: next exponent
		{[]float64{4094, 3}, []float64{4094, 4}, 1},   // 1.5 rounds half away from zero
		{[]float64{-0.75, 0.25}, []float64{-0.75, 0.25}, -11},
		{[]float64{0, math.Copysign(0, -1)}, []float64{0, 0}, minExp}, // -0 travels as 0
		{[]float64{math.SmallestNonzeroFloat64}, []float64{0}, minExp},
		{[]float64{-2047 * math.Ldexp(1, maxExp)}, []float64{-2047 * math.Ldexp(1, maxExp)}, maxExp},
	}
	for ci, c := range cases {
		v := append([]float64(nil), c.in...)
		if e := exp(v); e != c.exp {
			t.Errorf("case %d: exponent %d, want %d", ci, e, c.exp)
		}
		if err := QuantizeLead(v); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(c.want[i]) {
				t.Errorf("case %d value %d: %v, want %v", ci, i, v[i], c.want[i])
			}
		}
		if e := exp(v); e != c.exp {
			t.Errorf("case %d: re-quantised exponent %d, want %d", ci, e, c.exp)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		v := make([]float64, 1+rng.Intn(40))
		scale := math.Ldexp(1, rng.Intn(60)-30)
		for i := range v {
			v[i] = rng.NormFloat64() * scale
		}
		if err := QuantizeLead(v); err != nil {
			t.Fatal(err)
		}
		e := exp(v)
		again := append([]float64(nil), v...)
		if err := QuantizeLead(again); err != nil {
			t.Fatal(err)
		}
		if exp(again) != e {
			t.Fatalf("trial %d: exponent moved on re-quantising", trial)
		}
		for i := range v {
			if math.Float64bits(again[i]) != math.Float64bits(v[i]) {
				t.Fatalf("trial %d value %d: %v re-quantised to %v", trial, i, v[i], again[i])
			}
		}
	}
	for _, bad := range [][]float64{
		{1, math.NaN()}, {math.Inf(-1)}, {2047.5 * math.Ldexp(1, maxExp)},
	} {
		v := append([]float64(nil), bad...)
		if err := QuantizeLead(v); !errors.Is(err, ErrCodec) {
			t.Errorf("%v: got %v, want ErrCodec", bad, err)
		}
		if v[0] != bad[0] && !math.IsNaN(bad[0]) {
			t.Errorf("%v: a refused lead was modified to %v", bad, v)
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
		{Measurements: [][]float64{{1, math.NaN()}}},
		{Measurements: [][]float64{{1}, {math.Inf(1)}}},
		{Measurements: [][]float64{{math.MaxFloat64}}},
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
	// Intact checksums over codes Encode never writes: each must be
	// refused, or decode→encode would not be an identity. The payload is
	// exponent -9, then codes 512, 1024, 1536 packed as 20 04 00 60 00
	// (the last nibble is padding).
	for _, c := range []struct {
		name string
		edit func(b []byte)
	}{
		{"code -2048", func(b []byte) { b[headerLen+1], b[headerLen+2] = 0x80, 0x04 }},
		{"exponent above the smallest", func(b []byte) { clear(b[headerLen+1 : len(b)-crcLen]) }},
		{"nonzero padding", func(b []byte) { b[len(b)-crcLen-1] |= 0x01 }},
	} {
		bad := append([]byte(nil), frame...)
		c.edit(bad)
		if _, err := Decode(fixCRC(bad)); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: got %v, want ErrCodec", c.name, err)
		}
	}
}

// FuzzPacketDecode exercises the codec against arbitrary frames:
// Decode must never panic, a frame it accepts must re-encode to the
// same bytes, and a float frame (versions 1 and 2) must be ErrCodec.
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
	f.Add(encodeFloat(seed))
	f.Add(encodeFloat(traced))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if len(data) > 2 && (data[2] == versionFloat || data[2] == versionFloatTraced) && !errors.Is(err, ErrCodec) {
			t.Fatalf("float frame version %d: got %v, want ErrCodec", data[2], err)
		}
		if err != nil {
			return
		}
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("accepted packet failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("frame did not round-trip:\n in %x\nout %x", data, re)
		}
	})
}

// The float frame versions Encode wrote before the coded ones. Decode
// refuses both.
const (
	versionFloat       = 1
	versionFloatTraced = 2
)

// encodeFloat writes a version-1 frame (version 2 with a trace): one
// float32 per measurement. The tests make such frames with it to check
// that Decode refuses them.
func encodeFloat(p Packet) []byte {
	leads, mlen := len(p.Measurements), len(p.Measurements[0])
	ext := 0
	if p.Trace != 0 {
		ext = traceExtLen
	}
	buf := make([]byte, headerLen+ext+4*leads*mlen+crcLen)
	buf[0], buf[1], buf[2], buf[3] = packetMagic0, packetMagic1, versionFloat, byte(leads)
	binary.BigEndian.PutUint32(buf[4:], p.Seq)
	binary.BigEndian.PutUint32(buf[8:], p.WindowStart)
	binary.BigEndian.PutUint16(buf[12:], uint16(mlen))
	off := headerLen
	if ext > 0 {
		buf[2] = versionFloatTraced
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
	return buf
}
