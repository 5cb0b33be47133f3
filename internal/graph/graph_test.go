package graph

import (
	"math"
	"math/rand"
	"testing"

	"errors"
	"wbsn/internal/classify"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/link"
	"wbsn/internal/morpho"
	"wbsn/internal/telemetry"
)

func testLeads(t *testing.T, leads, n int, seed int64) [][]float64 {
	t.Helper()
	rec := ecg.Generate(ecg.Config{Seed: seed, Duration: float64(n)/256 + 1})
	out := make([][]float64, leads)
	for i := range out {
		src := rec.Leads[i%len(rec.Leads)]
		if len(src) < n {
			t.Fatalf("record too short: %d < %d", len(src), n)
		}
		out[i] = src[:n]
	}
	return out
}

func wantErrBuild(t *testing.T, name string, build func(b *Builder)) {
	t.Helper()
	b := NewBuilder()
	build(b)
	if _, err := b.Build(); !errors.Is(err, ErrBuild) {
		t.Errorf("%s: Build err = %v, want ErrBuild", name, err)
	}
}

func TestBuilderValidation(t *testing.T) {
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: 256})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"no input", func(b *Builder) { b.Packetize(Value{}) }},
		{"empty builder", func(b *Builder) {}},
		{"two inputs", func(b *Builder) { b.Input(3, 64); b.Input(3, 64) }},
		{"zero leads", func(b *Builder) { b.Input(0, 64) }},
		{"zero chunk", func(b *Builder) { b.Input(3, 0) }},
		{"morph filter no fs", func(b *Builder) { b.MorphFilter(b.Input(3, 64), morpho.FilterConfig{}) }},
		{"morph filter negative se", func(b *Builder) {
			b.MorphFilter(b.Input(3, 64), morpho.FilterConfig{Fs: 256, NoiseSE: -1})
		}},
		{"gate bad fs", func(b *Builder) { b.GateLeads(b.Input(3, 64), 0) }},
		{"combine on series", func(b *Builder) {
			b.CombineRMS(b.CombineRMS(b.Input(3, 64)))
		}},
		{"atrous on leads", func(b *Builder) { b.Atrous(b.Input(3, 64), 5) }},
		{"atrous zero scales", func(b *Builder) { b.Atrous(b.CombineRMS(b.Input(3, 64)), 0) }},
		{"atrous too many scales", func(b *Builder) { b.Atrous(b.CombineRMS(b.Input(3, 64)), 9) }},
		{"delineate nil", func(b *Builder) {
			b.Delineate(b.Atrous(b.CombineRMS(b.Input(3, 64)), 5), nil)
		}},
		{"delineate few scales", func(b *Builder) {
			b.Delineate(b.Atrous(b.CombineRMS(b.Input(3, 64)), 3), del)
		}},
		{"delineate on series", func(b *Builder) { b.Delineate(b.CombineRMS(b.Input(3, 64)), del) }},
		{"classify nil classifier", func(b *Builder) {
			b.Classify(b.CombineRMS(b.Input(3, 64)), nil, classify.DefaultBeatWindow(256))
		}},
		{"cs nil encoder", func(b *Builder) { b.CSEncode(b.Input(3, 64), nil) }},
		{"packetize series", func(b *Builder) { b.Packetize(b.CombineRMS(b.Input(3, 64))) }},
		{"foreign value", func(b *Builder) {
			other := NewBuilder()
			v := other.Input(3, 64)
			b.Input(3, 64)
			_ = v
			b.CombineRMS(Value{})
		}},
		{"multi consumer", func(b *Builder) {
			in := b.Input(3, 64)
			b.CombineRMS(in)
			b.MorphFilter(in, morpho.FilterConfig{Fs: 256})
		}},
		{"lap bad stage", func(b *Builder) { b.Lap(b.Input(3, 64), telemetry.Stage(125)) }},
		{"lap invalid value", func(b *Builder) { b.Input(3, 64); b.Lap(Value{id: 99}, telemetry.StageFilter) }},
	}
	for _, tc := range cases {
		wantErrBuild(t, tc.name, tc.build)
	}
}

func TestBuilderErrPoisons(t *testing.T) {
	b := NewBuilder()
	in := b.Input(3, 64)
	bad := b.MorphFilter(in, morpho.FilterConfig{}) // records the error
	if bad.ok {
		t.Fatal("op after error returned a valid value")
	}
	// Further ops on the poisoned builder are no-ops, not panics.
	b.CombineRMS(bad)
	b.Packetize(bad)
	if _, err := b.Build(); !errors.Is(err, ErrBuild) {
		t.Fatalf("Build err = %v, want the first recorded ErrBuild", err)
	}
	if b.err == nil {
		t.Fatal("Err() lost the recorded error")
	}
}

func equalSlices(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: [%d] = %v, want %v (bit-identity violated)", name, i, got[i], want[i])
		}
	}
}

// TestFilterCombineFusionBitIdentity is the load-bearing fusion check:
// the fused conditioning-filter + RMS combine must match the unfused
// FilterLeads → CombineRMS pair bit for bit.
func TestFilterCombineFusionBitIdentity(t *testing.T) {
	for _, leads := range []int{1, 2, 3, 5} {
		for _, n := range []int{33, 257, 1024} {
			chunk := testLeads(t, leads, n, int64(10*leads+n))
			cfg := morpho.FilterConfig{Fs: 256}

			b := NewBuilder()
			b.CombineRMS(b.MorphFilter(b.Input(leads, n), cfg))
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if len(p.stages) != 1 || p.stages[0].kind != stageFilterCombine {
				t.Fatalf("leads=%d: filter+combine not fused: %v", leads, p.stages)
			}
			res, err := p.NewExec().Run(chunk, nil)
			if err != nil {
				t.Fatal(err)
			}

			filtered, err := morpho.FilterLeads(chunk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			equalSlices(t, "filter+combine", res.Combined, dsp.CombineRMS(filtered))
		}
	}
}

// TestMorphFilterUnfusedBitIdentity pins the unfused path (a consumer
// other than CombineRMS blocks the fusion) to the same reference: the
// first of two chained filters runs unfused, the second fuses with the
// combiner.
func TestMorphFilterUnfusedBitIdentity(t *testing.T) {
	const n = 400
	chunk := testLeads(t, 3, n, 21)
	cfg := morpho.FilterConfig{Fs: 256}

	b := NewBuilder()
	v := b.MorphFilter(b.Input(3, n), cfg)
	v = b.MorphFilter(v, cfg)
	b.CombineRMS(v)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stages) != 2 || p.stages[0].kind != stageMorphFilter || p.stages[1].kind != stageFilterCombine {
		t.Fatalf("expected unfused morph filter then filter+combine, got %v", p.stages)
	}
	res, err := p.NewExec().Run(chunk, nil)
	if err != nil {
		t.Fatal(err)
	}

	once, err := morpho.FilterLeads(chunk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := morpho.FilterLeads(once, cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalSlices(t, "unfused filter", res.Combined, dsp.CombineRMS(twice))
}

// TestAnalysisPlanBitIdentity compiles the full analysis chain and
// compares combined series and delineated beats against the node's
// batch-style reference path.
func TestAnalysisPlanBitIdentity(t *testing.T) {
	const n = 1024
	chunk := testLeads(t, 3, n, 31)
	cfg := morpho.FilterConfig{Fs: 256}
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: 256})
	if err != nil {
		t.Fatal(err)
	}

	b := NewBuilder()
	v := b.MorphFilter(b.Input(3, n), cfg)
	s := b.CombineRMS(v)
	b.Delineate(b.Atrous(s, 5), del)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewExec()
	res, err := e.Run(chunk, nil)
	if err != nil {
		t.Fatal(err)
	}

	filtered, err := morpho.FilterLeads(chunk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	combined := dsp.CombineRMS(filtered)
	beats, err := del.Delineate(combined)
	if err != nil {
		t.Fatal(err)
	}
	equalSlices(t, "analysis combined", res.Combined, combined)
	if len(beats) == 0 {
		t.Fatal("reference found no beats; test signal unusable")
	}
	if len(res.Beats) != len(beats) {
		t.Fatalf("beats: %d != %d", len(res.Beats), len(beats))
	}
	for i := range beats {
		if res.Beats[i] != beats[i] {
			t.Fatalf("beat %d: %+v != %+v", i, res.Beats[i], beats[i])
		}
	}

	// A sub-MinInputLen trailing chunk delineates to no beats.
	short, err := e.Run([][]float64{chunk[0][:16], chunk[1][:16], chunk[2][:16]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Beats) != 0 {
		t.Fatalf("short chunk produced %d beats", len(short.Beats))
	}
}

// TestGateBitIdentity compares the compiled gate against the link-level
// reference masking.
func TestGateBitIdentity(t *testing.T) {
	const n = 1024
	chunk := testLeads(t, 3, n, 41)
	// Corrupt one lead so the gate has something to drop.
	flat := make([]float64, n)
	chunk[2] = flat
	cfg := morpho.FilterConfig{Fs: 256}

	b := NewBuilder()
	v := b.GateLeads(b.Input(3, n), 256)
	b.CombineRMS(b.MorphFilter(v, cfg))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.NewExec().Run(chunk, nil)
	if err != nil {
		t.Fatal(err)
	}

	mask := link.GoodLeads(chunk, 256)
	var kept [][]float64
	for li, ok := range mask {
		if ok {
			kept = append(kept, chunk[li])
		}
	}
	if len(kept) == 0 {
		kept = chunk
	}
	if len(kept) == len(chunk) {
		t.Log("gate kept every lead; identity still checked")
	}
	filtered, err := morpho.FilterLeads(kept, cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalSlices(t, "gated combine", res.Combined, dsp.CombineRMS(filtered))
}

type recordingLapper struct{ laps []telemetry.Stage }

func (r *recordingLapper) Lap(stage telemetry.Stage) { r.laps = append(r.laps, stage) }

func newTestEncoder(t *testing.T, window int) *cs.Encoder {
	t.Helper()
	m := cs.MeasurementsForCR(window, 4)
	phi, err := cs.NewSparseBinary(m, window, 4, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return cs.NewEncoder(phi)
}

// TestCSPlanBitIdentity checks the CS encode → packetize chain against
// the node's reference arithmetic (the integer encoder, then the radio
// grid), including the no-packet trailing-flush behaviour and its lap
// suppression.
func TestCSPlanBitIdentity(t *testing.T) {
	const window = 512
	chunk := testLeads(t, 3, window, 51)
	enc := newTestEncoder(t, window)

	b := NewBuilder()
	v := b.CSEncode(b.Input(3, window), enc)
	v = b.Packetize(v)
	b.Lap(v, telemetry.StageCS)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewExec()
	var lp recordingLapper
	res, err := e.Run(chunk, &lp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasPacket {
		t.Fatal("full window produced no packet")
	}

	ys := enc.EncodeLeadsQ15(chunk)
	for li := range ys {
		if err := link.QuantizeLead(ys[li]); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := (enc.Matrix().Rows()*len(chunk)*energy.SampleBits + 7) / 8
	if res.PacketBytes != wantBytes {
		t.Fatalf("packet bytes %d != %d", res.PacketBytes, wantBytes)
	}
	if len(res.Measurements) != len(ys) {
		t.Fatalf("measurement leads %d != %d", len(res.Measurements), len(ys))
	}
	for li := range ys {
		equalSlices(t, "measurements", res.Measurements[li], ys[li])
	}
	if len(lp.laps) != 1 || lp.laps[0] != telemetry.StageCS {
		t.Fatalf("laps = %v, want one StageCS", lp.laps)
	}

	// Partial trailing window: no packet, no measurements, no laps.
	lp.laps = nil
	short := [][]float64{chunk[0][:100], chunk[1][:100], chunk[2][:100]}
	res, err = e.Run(short, &lp)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasPacket || res.Measurements != nil || res.PacketBytes != 0 {
		t.Fatalf("partial window emitted a packet: %+v", res)
	}
	if len(lp.laps) != 0 {
		t.Fatalf("partial window fired laps: %+v", lp.laps)
	}
}

func TestRawPacketPlan(t *testing.T) {
	const n = 512
	chunk := testLeads(t, 2, n, 61)
	b := NewBuilder()
	b.Packetize(b.Input(2, n))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewExec()
	res, err := e.Run(chunk, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := (2*n*12 + 7) / 8
	if !res.HasPacket || res.PacketBytes != want {
		t.Fatalf("raw packet = %+v, want %d bytes", res, want)
	}
	// Raw mode packetises partial flush chunks too.
	res, err = e.Run([][]float64{chunk[0][:10], chunk[1][:10]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasPacket || res.PacketBytes != (2*10*12+7)/8 {
		t.Fatalf("raw flush packet = %+v", res)
	}
}

func TestClassifyBeatBitIdentity(t *testing.T) {
	const n = 1024
	chunk := testLeads(t, 3, n, 71)
	win := classify.DefaultBeatWindow(256)
	rng := rand.New(rand.NewSource(5))
	rp, err := classify.NewRPMatrix(12, win.Len(), rng)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[int][][]float64{}
	for label := 0; label < 2; label++ {
		for k := 0; k < 6; k++ {
			raw := make([]float64, win.Len())
			for i := range raw {
				raw[i] = rng.NormFloat64() + float64(label)
			}
			z, err := rp.ProjectInto(raw, nil)
			if err != nil {
				t.Fatal(err)
			}
			samples[label] = append(samples[label], z)
		}
	}
	cls, err := classify.Train(rp, samples, classify.TrainConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: 256})
	if err != nil {
		t.Fatal(err)
	}

	b := NewBuilder()
	s := b.CombineRMS(b.MorphFilter(b.Input(3, n), morpho.FilterConfig{Fs: 256}))
	b.Delineate(b.Atrous(s, 5), del)
	cv := b.Classify(s, cls, win)
	b.Lap(cv, telemetry.StageClassify)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.classify == nil {
		t.Fatal("plan lost its classifier")
	}
	e := p.NewExec()
	res, err := e.Run(chunk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Beats) == 0 {
		t.Fatal("no beats to classify")
	}

	classifiedAny := false
	for _, beat := range res.Beats {
		var lp recordingLapper
		label, mem, ok, err := e.ClassifyBeat(beat.R, &lp)
		if err != nil {
			t.Fatal(err)
		}
		if len(lp.laps) != 1 || lp.laps[0] != telemetry.StageClassify {
			t.Fatalf("classify laps = %v", lp.laps)
		}
		ref := win.Extract(res.Combined, beat.R)
		if (ref != nil) != ok {
			t.Fatalf("beat %d: classified=%v, reference window nil=%v", beat.R, ok, ref == nil)
		}
		if !ok {
			continue
		}
		classifiedAny = true
		z, err := cls.RP().ProjectInto(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantLabel, wantMem, err := cls.PredictProjected(z)
		if err != nil {
			t.Fatal(err)
		}
		if label != wantLabel || mem != wantMem {
			t.Fatalf("beat %d: (%d, %v) != (%d, %v)", beat.R, label, mem, wantLabel, wantMem)
		}
	}
	if !classifiedAny {
		t.Fatal("no beat had a full extraction window")
	}

	// A plan without a classify op rejects ClassifyBeat.
	b2 := NewBuilder()
	b2.CombineRMS(b2.Input(3, n))
	p2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p2.NewExec().ClassifyBeat(100, nil); !errors.Is(err, ErrExec) {
		t.Fatalf("ClassifyBeat without classify op: err = %v, want ErrExec", err)
	}
}

func TestRunValidation(t *testing.T) {
	b := NewBuilder()
	b.CombineRMS(b.Input(2, 64))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewExec()
	good := make([]float64, 64)
	cases := [][][]float64{
		{good},               // wrong lead count
		{good, good, good},   // wrong lead count
		{good, good[:10]},    // ragged
		{good[:0], good[:0]}, // empty chunk
		{make([]float64, 65), make([]float64, 65)}, // over capacity
	}
	for i, chunk := range cases {
		if _, err := e.Run(chunk, nil); !errors.Is(err, ErrExec) {
			t.Errorf("case %d: err = %v, want ErrExec", i, err)
		}
	}
}

// TestRunSteadyStateAllocs pins the arena promise: a warm executor
// processes chunks without allocating (delineation output slices are
// the only per-run product, so the measured plan stops at the à-trous
// stage).
func TestRunSteadyStateAllocs(t *testing.T) {
	const n = 1024
	chunk := testLeads(t, 3, n, 81)
	b := NewBuilder()
	b.Atrous(b.CombineRMS(b.MorphFilter(b.Input(3, n), morpho.FilterConfig{Fs: 256})), 5)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewExec()
	if _, err := e.Run(chunk, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.Run(chunk, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run allocates %.1f objects per chunk, want 0", allocs)
	}
}

func TestPlanArenaPacking(t *testing.T) {
	// Overlapping lifetimes must not share bytes; disjoint ones should.
	a := &bufReq{name: "a", size: 10, def: 0, lastUse: 1}
	bq := &bufReq{name: "b", size: 10, def: 0, lastUse: 1}
	c := &bufReq{name: "c", size: 10, def: 2, lastUse: 3}
	total := planArena([]*bufReq{a, bq, c})
	if a.off == bq.off {
		t.Fatalf("overlapping buffers share offset %d", a.off)
	}
	if c.off != 0 {
		t.Fatalf("disjoint buffer did not reuse offset 0, got %d", c.off)
	}
	if total != 20 {
		t.Fatalf("slab total = %d, want 20", total)
	}

	// A long-lived buffer blocks reuse across its whole span.
	long := &bufReq{name: "long", size: 4, def: 0, lastUse: 10}
	e1 := &bufReq{name: "e1", size: 6, def: 1, lastUse: 2}
	e2 := &bufReq{name: "e2", size: 6, def: 3, lastUse: 4}
	total = planArena([]*bufReq{long, e1, e2})
	if e1.off < long.off+long.size && long.off < e1.off+e1.size {
		t.Fatalf("e1 (%d) overlaps long-lived buffer (%d)", e1.off, long.off)
	}
	if e1.off != e2.off {
		t.Fatalf("disjoint ephemerals did not share: %d vs %d", e1.off, e2.off)
	}
	if total != 10 {
		t.Fatalf("slab total = %d, want 10", total)
	}

	if planArena(nil) != 0 {
		t.Fatal("empty request set should plan an empty slab")
	}
}

func TestDescribe(t *testing.T) {
	const n = 1024
	b := NewBuilder()
	b.CombineRMS(b.MorphFilter(b.Input(3, n), morpho.FilterConfig{Fs: 256}))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.ChunkLen() != n || p.leads != 3 {
		t.Fatalf("getters: %d leads, %d chunk", p.leads, p.ChunkLen())
	}
	const want = "2 ops -> 1 stages (1 fused away), arena 56.0 KiB"
	if got := p.Describe(); got != want {
		t.Fatalf("Describe() = %q\nwant        %q", got, want)
	}
}
