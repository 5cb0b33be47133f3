package graph

import (
	"fmt"
	"math"

	"wbsn/internal/dsp"
	"wbsn/internal/energy"
	"wbsn/internal/link"
	"wbsn/internal/morpho"
	"wbsn/internal/wavelet"
)

// Exec executes a compiled Plan for one stream. It owns every mutable
// work buffer — the scratch slab planned by the arena, morphological
// and wavelet scratch — all allocated (and warmed) at construction, so
// steady-state Run calls do not allocate. An Exec is not safe for
// concurrent use; create one per stream and share the Plan.
type Exec struct {
	plan *Plan
	slab []float64
	// coeffs holds the à-trous stage's arena-backed detail headers,
	// re-lengthed to the current chunk each Run.
	coeffs           [][]float64
	kept             [][]float64
	ms               morpho.Scratch
	ws               wavelet.Scratch
	beatBuf, featBuf []float64
	// combined is the exposed post-combination series of the last Run
	// (arena-backed), read by ClassifyBeat.
	combined []float64
}

func execErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrExec, fmt.Sprintf(format, args...))
}

// NewExec allocates an executor for the plan: the scratch slab and
// header tables, then runs the plan once over a zero chunk so
// demand-grown scratch (morphological wedges, wavelet ping-pong
// buffers, delineator pools) is warm before the first real chunk. The
// stages that keep such scratch all write arena buffers; a plan with
// no arena (raw and CS packetisers) has nothing to warm and skips the
// run.
func (p *Plan) NewExec() *Exec {
	e := &Exec{
		plan: p,
		slab: make([]float64, p.slabLen),
		kept: make([][]float64, 0, p.leads),
	}
	for si := range p.stages {
		if sg := &p.stages[si]; sg.kind == stageAtrous {
			e.coeffs = make([][]float64, sg.scales)
		}
	}
	if p.classify != nil {
		e.beatBuf = make([]float64, 0, p.classify.beatWin.Len())
	}
	if p.slabLen == 0 {
		return e
	}
	warm := make([][]float64, p.leads)
	zero := make([]float64, p.chunkLen)
	for i := range warm {
		warm[i] = zero
	}
	e.Run(warm, nil) // warm-up only; zero input cannot fail usefully
	return e
}

// Run executes the plan over one lead-major chunk, firing each compiled
// stage's telemetry laps on lp (when non-nil) as the stage completes.
// The returned Result's Combined series is arena-backed and valid until
// the next Run.
func (e *Exec) Run(chunk [][]float64, lp Lapper) (Result, error) {
	p := e.plan
	if len(chunk) != p.leads {
		return Result{}, execErr("got %d leads, plan wants %d", len(chunk), p.leads)
	}
	n := len(chunk[0])
	for _, l := range chunk {
		if len(l) != n {
			return Result{}, execErr("ragged leads")
		}
	}
	if n < 1 || n > p.chunkLen {
		return Result{}, execErr("chunk length %d outside [1, %d]", n, p.chunkLen)
	}

	var res Result
	leads := chunk
	var series []float64
	var coeffs [][]float64
	e.combined = nil

	for si := range p.stages {
		sg := &p.stages[si]
		switch sg.kind {
		case stageGate:
			// Mirrors the node's per-chunk gating: fewer than two leads
			// pass through, and an (impossible) empty keep set falls back
			// to every lead.
			if len(leads) >= 2 {
				mask := link.GoodLeads(leads, sg.fs)
				kept := e.kept[:0]
				for li, ok := range mask {
					if ok {
						kept = append(kept, leads[li])
					}
				}
				if len(kept) > 0 {
					e.kept = kept
					leads = kept
				}
			}

		case stageFilterCombine:
			series = e.runFilterCombine(sg, leads, n)

		case stageCombine:
			series = dsp.CombineRMSInto(leads, sg.out[0].slice(e.slab)[:n])

		case stageAtrous:
			for k := range sg.out {
				e.coeffs[k] = sg.out[k].slice(e.slab)[:n]
			}
			got, err := wavelet.AtrousInto(series, sg.scales, e.coeffs, &e.ws)
			if err != nil {
				return Result{}, err
			}
			coeffs = got

		case stageDelineate:
			beats, err := sg.del.DelineateCoeffs(coeffs)
			if err != nil {
				return Result{}, err
			}
			res.Beats = beats

		case stageEncode:
			if n != sg.enc.WindowLen() {
				// Trailing flush: a partial window produces no packet and
				// fires no downstream laps, matching the streaming node.
				e.combined = series
				res.Combined = series
				return res, nil
			}
			res.Measurements = sg.enc.EncodeLeadsQ15(leads)
			for _, y := range res.Measurements {
				if err := link.QuantizeLead(y); err != nil {
					return Result{}, err
				}
			}

		case stagePacketRaw:
			res.HasPacket = true
			res.PacketBytes = (len(leads)*n*energy.SampleBits + 7) / 8

		case stagePacketMeas:
			res.HasPacket = true
			res.PacketBytes = (len(res.Measurements[0])*len(res.Measurements)*energy.SampleBits + 7) / 8
		}
		if lp != nil {
			for _, tag := range sg.laps {
				lp.Lap(tag)
			}
		}
	}
	e.combined = series
	res.Combined = series
	return res, nil
}

// runFilterCombine is the fused morphological conditioning filter +
// RMS lead combiner: each lead runs morpho's conditioning kernel into
// one arena buffer, whose squares accumulate into the combined series
// before the next lead overwrites it. Per output element the
// floating-point operation sequence — the square, the across-lead
// accumulation order and the final sqrt(sum*inv) — matches the
// unfused FilterLeads + CombineRMSInto pair exactly, so the fusion is
// bit-identical.
func (e *Exec) runFilterCombine(sg *stage, leads [][]float64, n int) []float64 {
	base := sg.tmp[0].slice(e.slab)[:n]
	f := sg.tmp[1].slice(e.slab)[:n]
	cm := sg.out[0].slice(e.slab)[:n]
	clear(cm)
	inv := 1 / float64(len(leads))
	for _, x := range leads {
		// Lengths match by construction, so the kernel cannot fail.
		_ = morpho.ConditionInto(x, sg.fcfg, f, base, f, &e.ms)
		for i, v := range f {
			cm[i] += v * v
		}
	}
	for i := 0; i < n; i++ {
		cm[i] = math.Sqrt(cm[i] * inv)
	}
	return cm
}

// ClassifyBeat classifies the beat at chunk-local R index r of the last
// Run's combined series, firing the classify op's telemetry laps on lp.
// classified is false when the beat window falls off the series borders
// (the beat keeps its default label).
func (e *Exec) ClassifyBeat(r int, lp Lapper) (label int, membership float64, classified bool, err error) {
	c := e.plan.classify
	if c == nil {
		return 0, 0, false, execErr("plan has no classify op")
	}
	if beat := c.beatWin.ExtractInto(e.combined, r, e.beatBuf); beat != nil {
		e.beatBuf = beat
		z, perr := c.cls.RP().ProjectInto(beat, e.featBuf)
		if perr != nil {
			return 0, 0, false, perr
		}
		e.featBuf = z
		label, membership, err = c.cls.PredictProjected(z)
		if err != nil {
			return 0, 0, false, err
		}
		classified = true
	}
	if lp != nil {
		for _, tag := range c.laps {
			lp.Lap(tag)
		}
	}
	return label, membership, classified, nil
}
