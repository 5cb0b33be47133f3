package graph

import (
	"fmt"

	"wbsn/internal/classify"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/morpho"
	"wbsn/internal/telemetry"
)

// stageKind enumerates the compiled (post-fusion) stage forms.
type stageKind int

const (
	stageGate          stageKind = iota
	stageMorphFilter             // unfused conditioning filter (custom consumer)
	stageFilterCombine           // fused conditioning filter tail + RMS combine
	stageCombine
	stageAtrous
	stageDelineate
	stageEncode
	stagePacketRaw
	stagePacketMeas
)

func (k stageKind) String() string {
	switch k {
	case stageGate:
		return "gate"
	case stageMorphFilter:
		return "morph-filter"
	case stageFilterCombine:
		return "filter+combine"
	case stageCombine:
		return "combine"
	case stageAtrous:
		return "atrous"
	case stageDelineate:
		return "delineate"
	case stageEncode:
		return "cs-encode"
	case stagePacketRaw:
		return "packet-raw"
	case stagePacketMeas:
		return "packet-meas"
	default:
		return "unknown"
	}
}

// stage is one compiled execution step. All fields are immutable after
// Build; per-stream mutable state lives in the Exec.
type stage struct {
	kind stageKind
	laps []telemetry.Stage

	l0, lc, kn int // fused conditioning-filter SE lengths
	fcfg       morpho.FilterConfig
	scales     int
	del        *delineation.WaveletDelineator
	enc        *cs.Encoder
	fs         float64

	out []bufRef // lane (or scale) output buffers in the arena
	tmp []bufRef // intra-stage temporaries in the arena
}

// classifyOp is the compiled per-beat classification capability.
type classifyOp struct {
	cls     *classify.Classifier
	beatWin classify.BeatWindow
	laps    []telemetry.Stage
}

// Plan is a compiled, immutable pipeline. One Plan is built per node
// configuration and shared by every stream (and pooled fleet rig)
// executing it; create one Exec per stream with NewExec.
type Plan struct {
	stages   []stage
	chunkLen int
	leads    int
	slabLen  int
	classify *classifyOp
	fused    int // ops merged away by fusion (for Describe)
	ops      int // builder ops compiled (excluding input)
}

// ChunkLen returns the maximum per-lead chunk length the plan was built
// for.
func (p *Plan) ChunkLen() int { return p.chunkLen }

// Describe summarises the compiled plan for logs: op and stage counts,
// fusion wins and the arena footprint.
func (p *Plan) Describe() string {
	return fmt.Sprintf("%d ops -> %d stages (%d fused away), arena %.1f KiB",
		p.ops, len(p.stages), p.fused, float64(p.slabLen*8)/1024)
}

// compile lowers the validated chain into fused stages and plans the
// scratch arena.
func compile(b *Builder, chain []*irNode, cn *irNode) (*Plan, error) {
	p := &Plan{chunkLen: b.chunkLen, leads: b.leads, ops: len(chain) - 1}
	if cn != nil {
		p.ops++
		p.classify = &classifyOp{cls: cn.cls, beatWin: cn.beatWin, laps: cn.laps}
	}
	L := b.chunkLen

	// Fusion pass: group chain ops into stages.
	ops := chain[1:] // skip the input node
	for i := 0; i < len(ops); i++ {
		n := ops[i]
		switch n.kind {
		case opMorphFilter:
			fc := n.fcfg.WithDefaults()
			l0 := fc.BaselineSE
			if i+1 < len(ops) && ops[i+1].kind == opCombineRMS {
				// The conditioning filter's final open/close average
				// feeds straight into the combiner's square-accumulate:
				// per-element addition order across leads is preserved,
				// so the filtered leads never materialise.
				cb := ops[i+1]
				sg := stage{kind: stageFilterCombine, fcfg: fc,
					l0: l0, lc: l0 + l0/2, kn: fc.NoiseSE}
				sg.laps = append(append(sg.laps, n.laps...), cb.laps...)
				p.fused++
				p.stages = append(p.stages, sg)
				i++
				continue
			}
			p.stages = append(p.stages, stage{kind: stageMorphFilter, fcfg: fc,
				l0: l0, lc: l0 + l0/2, kn: fc.NoiseSE, laps: n.laps})
		case opGateLeads:
			p.stages = append(p.stages, stage{kind: stageGate, fs: n.fs, laps: n.laps})
		case opCombineRMS:
			p.stages = append(p.stages, stage{kind: stageCombine, laps: n.laps})
		case opAtrous:
			p.stages = append(p.stages, stage{kind: stageAtrous, scales: n.scales, laps: n.laps})
		case opDelineate:
			p.stages = append(p.stages, stage{kind: stageDelineate, del: n.del, laps: n.laps})
		case opCSEncode:
			p.stages = append(p.stages, stage{kind: stageEncode, enc: n.enc, laps: n.laps})
		case opPacketize:
			kind := stagePacketRaw
			if b.nodes[n.in].shape.Class == ShapeMeasurements {
				kind = stagePacketMeas
			}
			p.stages = append(p.stages, stage{kind: kind, laps: n.laps})
		default:
			return nil, buildErr("op %v cannot be compiled", n.kind)
		}
	}

	// Arena planning: request buffers with stage-index liveness and
	// pack them with interval reuse. A stage's output lives until the
	// next stage consumes it; the exposed combined series (and a series
	// read by per-beat classification) lives until the end of the run.
	S := len(p.stages)
	var reqs []*bufReq
	addReq := func(name string, size, def, lastUse int) *bufReq {
		r := &bufReq{name: name, size: size, def: def, lastUse: lastUse}
		reqs = append(reqs, r)
		return r
	}
	// Track, per stage, the request backing each output so offsets can
	// be resolved after packing.
	outReqs := make([][]*bufReq, S)
	tmpReqs := make([][]*bufReq, S)
	for si := range p.stages {
		sg := &p.stages[si]
		switch sg.kind {
		case stageMorphFilter:
			for l := 0; l < b.leads; l++ {
				outReqs[si] = append(outReqs[si], addReq(fmt.Sprintf("%v.out%d", sg.kind, l), L, si, si+1))
			}
		case stageFilterCombine:
			for _, nm := range []string{"t", "opened", "base", "corrected", "o", "cl"} {
				tmpReqs[si] = append(tmpReqs[si], addReq("filter."+nm, L, si, si))
			}
			outReqs[si] = append(outReqs[si], addReq("combined", L, si, S))
		case stageCombine:
			outReqs[si] = append(outReqs[si], addReq("combined", L, si, S))
		case stageAtrous:
			last := si
			if si+1 < S && p.stages[si+1].kind == stageDelineate {
				last = si + 1
			}
			for k := 0; k < sg.scales; k++ {
				outReqs[si] = append(outReqs[si], addReq(fmt.Sprintf("atrous.w%d", k), L, si, last))
			}
		}
	}
	p.slabLen = planArena(reqs)
	for si := range p.stages {
		sg := &p.stages[si]
		for _, r := range outReqs[si] {
			sg.out = append(sg.out, bufRef{off: r.off, size: r.size})
		}
		for _, r := range tmpReqs[si] {
			sg.tmp = append(sg.tmp, bufRef{off: r.off, size: r.size})
		}
	}
	return p, nil
}
