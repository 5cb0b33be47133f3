package graph

import (
	"math"

	"wbsn/internal/classify"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/morpho"
	"wbsn/internal/telemetry"
)

// opKind enumerates the IR node operations.
type opKind int

const (
	opInput opKind = iota
	opGateLeads
	opMorphFilter
	opCombineRMS
	opAtrous
	opDelineate
	opClassify
	opCSEncode
	opPacketize
)

func (k opKind) String() string {
	switch k {
	case opInput:
		return "input"
	case opGateLeads:
		return "gate-leads"
	case opMorphFilter:
		return "morph-filter"
	case opCombineRMS:
		return "combine-rms"
	case opAtrous:
		return "atrous"
	case opDelineate:
		return "delineate"
	case opClassify:
		return "classify"
	case opCSEncode:
		return "cs-encode"
	case opPacketize:
		return "packetize"
	default:
		return "unknown"
	}
}

// irNode is one op of the graph under construction.
type irNode struct {
	id    int
	kind  opKind
	in    int // producer node id (-1 for the input node)
	shape Shape

	// Op parameters (only the fields the kind uses are set).
	fcfg    morpho.FilterConfig // opMorphFilter
	scales  int                 // opAtrous
	del     *delineation.WaveletDelineator
	cls     *classify.Classifier // opClassify
	beatWin classify.BeatWindow  // opClassify
	enc     *cs.Encoder          // opCSEncode
	fs      float64              // opGateLeads

	// lap tags recorded after this op's compiled stage completes.
	laps []telemetry.Stage
}

// Builder accumulates ops and validation errors. The first invalid op
// poisons the builder: subsequent ops are ignored and Build returns the
// recorded error. Builder methods never panic — malformed graphs are
// reported through Build.
type Builder struct {
	nodes    []*irNode
	err      error
	chunkLen int
	leads    int
	hasInput bool
}

// Value is a typed handle to one op's output.
type Value struct {
	id    int
	shape Shape
	ok    bool
}

// NewBuilder returns an empty pipeline builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) fail(format string, args ...any) Value {
	if b.err == nil {
		b.err = buildErr(format, args...)
	}
	return Value{id: -1}
}

func (b *Builder) add(n *irNode, shape Shape) Value {
	n.id = len(b.nodes)
	n.shape = shape
	b.nodes = append(b.nodes, n)
	return Value{id: n.id, shape: shape, ok: true}
}

// take validates a value handle against the builder and an expected
// shape class set; it returns the producer node or nil (after recording
// the error).
func (b *Builder) take(v Value, kind opKind, want ...ShapeClass) *irNode {
	if b.err != nil {
		return nil
	}
	if !v.ok || v.id < 0 || v.id >= len(b.nodes) {
		b.fail("%v: input is not a valid value of this builder", kind)
		return nil
	}
	n := b.nodes[v.id]
	for _, w := range want {
		if n.shape.Class == w {
			return n
		}
	}
	b.fail("%v: input has shape %v, want one of %v", kind, n.shape.Class, want)
	return nil
}

// Input declares the pipeline source: a lead-major chunk of at most
// chunkLen samples per lead. Exactly one Input is allowed per builder.
func (b *Builder) Input(leads, chunkLen int) Value {
	if b.err != nil {
		return Value{id: -1}
	}
	if b.hasInput {
		return b.fail("input: declared twice")
	}
	if leads < 1 {
		return b.fail("input: lead count %d < 1", leads)
	}
	if chunkLen < 1 {
		return b.fail("input: chunk length %d < 1", chunkLen)
	}
	b.hasInput = true
	b.leads = leads
	b.chunkLen = chunkLen
	return b.add(&irNode{kind: opInput, in: -1}, Shape{Class: ShapeLeads, Leads: leads})
}

// GateLeads inserts per-chunk signal-quality gating: leads whose SQI
// falls below link.MinLeadSQI are dropped for this chunk (at least one
// lead always survives; fewer than two input leads pass through
// untouched).
func (b *Builder) GateLeads(v Value, fs float64) Value {
	n := b.take(v, opGateLeads, ShapeLeads)
	if n == nil {
		return Value{id: -1}
	}
	if fs <= 0 || math.IsNaN(fs) || math.IsInf(fs, 0) {
		return b.fail("gate-leads: sampling rate %v must be finite and positive", fs)
	}
	return b.add(&irNode{kind: opGateLeads, in: n.id, fs: fs}, n.shape)
}

// MorphFilter applies the two-stage morphological conditioning filter
// (baseline correction then open/close noise suppression) to every
// lead. Its consumer must be CombineRMS, with which the compiler fuses
// it (Build refuses any other consumer).
func (b *Builder) MorphFilter(v Value, cfg morpho.FilterConfig) Value {
	n := b.take(v, opMorphFilter, ShapeLeads)
	if n == nil {
		return Value{id: -1}
	}
	if cfg.Fs <= 0 || math.IsNaN(cfg.Fs) || math.IsInf(cfg.Fs, 0) {
		return b.fail("morph-filter: sampling rate %v must be finite and positive", cfg.Fs)
	}
	return b.add(&irNode{kind: opMorphFilter, in: n.id, fcfg: cfg}, n.shape)
}

// CombineRMS collapses a multi-lead value into one series by per-sample
// root mean square across the (possibly gated) leads.
func (b *Builder) CombineRMS(v Value) Value {
	n := b.take(v, opCombineRMS, ShapeLeads)
	if n == nil {
		return Value{id: -1}
	}
	return b.add(&irNode{kind: opCombineRMS, in: n.id}, Shape{Class: ShapeSeries})
}

// Atrous computes the undecimated quadratic-spline wavelet transform of
// a series at the given number of dyadic scales (1..8).
func (b *Builder) Atrous(v Value, scales int) Value {
	n := b.take(v, opAtrous, ShapeSeries)
	if n == nil {
		return Value{id: -1}
	}
	if scales < 1 || scales > 8 {
		return b.fail("atrous: scale count %d outside [1, 8]", scales)
	}
	return b.add(&irNode{kind: opAtrous, in: n.id, scales: scales}, Shape{Class: ShapeCoeffs, Scales: scales})
}

// Delineate detects and brackets heartbeats from a precomputed à-trous
// coefficient stack (at least 4 scales).
func (b *Builder) Delineate(v Value, del *delineation.WaveletDelineator) Value {
	n := b.take(v, opDelineate, ShapeCoeffs)
	if n == nil {
		return Value{id: -1}
	}
	if del == nil {
		return b.fail("delineate: nil delineator")
	}
	if n.shape.Scales < 4 {
		return b.fail("delineate: needs >= 4 coefficient scales, got %d", n.shape.Scales)
	}
	return b.add(&irNode{kind: opDelineate, in: n.id, del: del}, Shape{Class: ShapeBeats})
}

// Classify attaches per-beat classification to a series value: the
// executor's ClassifyBeat extracts a window around a detected R peak of
// that series, projects it and predicts its class. Classify is a side
// capability — its Value is terminal and consumed by no other op — but
// it extends the series' arena liveness to the end of the run.
func (b *Builder) Classify(v Value, cls *classify.Classifier, win classify.BeatWindow) Value {
	n := b.take(v, opClassify, ShapeSeries)
	if n == nil {
		return Value{id: -1}
	}
	if cls == nil {
		return b.fail("classify: nil classifier")
	}
	if win.Len() < 1 {
		return b.fail("classify: empty beat window")
	}
	return b.add(&irNode{kind: opClassify, in: n.id, cls: cls, beatWin: win}, Shape{Class: ShapeBeats})
}

// CSEncode runs the node's integer compressed-sensing stage over each
// lead of a full chunk: digitise to Q15, project through the sensing
// matrix (cs.Encoder.EncodeLeadsQ15) and round each lead's measurements
// onto the 12-bit radio grid (link.QuantizeLead), so they are the
// values the wire carries. Chunks shorter than the encoder's window
// produce no packet at run time (trailing flush).
func (b *Builder) CSEncode(v Value, enc *cs.Encoder) Value {
	n := b.take(v, opCSEncode, ShapeLeads)
	if n == nil {
		return Value{id: -1}
	}
	if enc == nil {
		return b.fail("cs-encode: nil encoder")
	}
	if enc.WindowLen() != b.chunkLen {
		return b.fail("cs-encode: encoder window %d != input chunk length %d", enc.WindowLen(), b.chunkLen)
	}
	return b.add(&irNode{kind: opCSEncode, in: n.id, enc: enc},
		Shape{Class: ShapeMeasurements, Leads: n.shape.Leads})
}

// Packetize terminates a raw or CS pipeline: it sizes the radio payload
// at energy.SampleBits per sample (or per measurement code).
func (b *Builder) Packetize(v Value) Value {
	n := b.take(v, opPacketize, ShapeLeads, ShapeMeasurements)
	if n == nil {
		return Value{id: -1}
	}
	return b.add(&irNode{kind: opPacketize, in: n.id}, Shape{Class: ShapePacket})
}

// Lap tags a value's producing op with a telemetry stage: the compiled
// stage that computes it records one lap at that tag when it completes.
func (b *Builder) Lap(v Value, stage telemetry.Stage) {
	if b.err != nil {
		return
	}
	if !v.ok || v.id < 0 || v.id >= len(b.nodes) {
		b.fail("lap: not a valid value of this builder")
		return
	}
	if stage < 0 || int(stage) >= telemetry.NumStages {
		b.fail("lap: unknown telemetry stage %d", stage)
		return
	}
	b.nodes[v.id].laps = append(b.nodes[v.id].laps, stage)
}

// Build validates the graph structure and compiles it into an immutable
// execution plan. It never panics: malformed graphs return an error.
func (b *Builder) Build() (*Plan, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.hasInput {
		return nil, buildErr("no input declared")
	}
	// Count chain consumers (Classify is a side capability, not a chain
	// link) and collect classifiers.
	consumers := make([][]int, len(b.nodes))
	var classifyNodes []*irNode
	for _, n := range b.nodes {
		if n.kind == opInput {
			continue
		}
		if n.kind == opClassify {
			classifyNodes = append(classifyNodes, n)
			continue
		}
		consumers[n.in] = append(consumers[n.in], n.id)
	}
	if len(classifyNodes) > 1 {
		return nil, buildErr("at most one classify op per pipeline")
	}
	// Walk the single-consumer chain from the input.
	var chain []*irNode
	cur := 0 // input node id
	for _, n := range b.nodes {
		if n.kind == opInput {
			cur = n.id
			break
		}
	}
	chain = append(chain, b.nodes[cur])
	for {
		next := consumers[cur]
		if len(next) == 0 {
			break
		}
		if len(next) > 1 {
			return nil, buildErr("value of %v consumed by %d ops; pipelines are single-consumer chains",
				b.nodes[cur].kind, len(next))
		}
		cur = next[0]
		chain = append(chain, b.nodes[cur])
	}
	// Every op must be on the chain or be the classify side node.
	if got, want := len(chain)+len(classifyNodes), len(b.nodes); got != want {
		return nil, buildErr("%d op(s) unreachable from the input", want-got)
	}
	for _, cn := range classifyNodes {
		onChain := false
		for _, n := range chain {
			if n.id == cn.in {
				onChain = true
				break
			}
		}
		if !onChain {
			return nil, buildErr("classify input is not on the pipeline chain")
		}
	}
	terminal := chain[len(chain)-1]
	switch terminal.shape.Class {
	case ShapePacket, ShapeBeats, ShapeSeries, ShapeLeads, ShapeCoeffs, ShapeMeasurements:
		// Any terminal shape is executable; packet/beats are the
		// conventional sinks.
	}
	var cn *irNode
	if len(classifyNodes) == 1 {
		cn = classifyNodes[0]
	}
	return compile(b, chain, cn)
}
