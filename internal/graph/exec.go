package graph

import (
	"fmt"
	"math"

	"wbsn/internal/cs"
	"wbsn/internal/dsp"
	"wbsn/internal/link"
	"wbsn/internal/morpho"
	"wbsn/internal/wavelet"
)

// firState is the per-element delay line of a fused stream chain. The
// update in runStreamChain mirrors dsp.FIR.Step statement for statement
// so fused output stays bit-identical to sequential whole-signal passes.
type firState struct {
	delay []float64
	pos   int
}

// bqState is the per-element DF2T state of a fused stream chain.
type bqState struct {
	z1, z2 float64
}

// Exec executes a compiled Plan for one stream. It owns every mutable
// work buffer — the scratch slab planned by the arena, filter states,
// morphological and wavelet scratch — all allocated (and warmed) at
// construction, so steady-state Run calls do not allocate. An Exec is
// not safe for concurrent use; create one per stream and share the
// Plan.
type Exec struct {
	plan *Plan
	slab []float64
	// outHdrs[si] holds the slice headers for stage si's outputs; they
	// are refreshed (re-lengthed to the current chunk) each Run so a
	// stage's consumer can read them while the next stage writes its
	// own headers.
	outHdrs               [][][]float64
	kept                  [][]float64
	ms                    morpho.Scratch
	ws                    wavelet.Scratch
	firs                  [][]firState
	bqs                   [][]bqState
	medianWin, medianSort []float64
	beatBuf, featBuf      []float64
	// combined is the exposed post-combination series of the last Run
	// (arena-backed), read by ClassifyBeat.
	combined []float64
}

func execErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrExec, fmt.Sprintf(format, args...))
}

// NewExec allocates an executor for the plan: the scratch slab, filter
// states and header tables, then runs the plan once over a zero chunk
// so demand-grown scratch (morphological wedges, wavelet ping-pong
// buffers, median sort space, delineator pools) is warm before the
// first real chunk.
func (p *Plan) NewExec() *Exec {
	e := &Exec{
		plan:    p,
		slab:    make([]float64, p.slabLen),
		outHdrs: make([][][]float64, len(p.stages)),
		firs:    make([][]firState, len(p.stages)),
		bqs:     make([][]bqState, len(p.stages)),
		kept:    make([][]float64, 0, p.leads),
	}
	for si := range p.stages {
		sg := &p.stages[si]
		if len(sg.out) > 0 {
			e.outHdrs[si] = make([][]float64, len(sg.out))
		}
		switch sg.kind {
		case stageStreamChain:
			frs := make([]firState, len(sg.elems))
			for ei, el := range sg.elems {
				if !el.biquad {
					frs[ei].delay = make([]float64, len(el.taps))
				}
			}
			e.firs[si] = frs
			e.bqs[si] = make([]bqState, len(sg.elems))
		case stageMedian:
			if sg.k > len(e.medianWin) {
				e.medianWin = make([]float64, sg.k)
			}
		}
	}
	if p.classify != nil {
		e.beatBuf = make([]float64, 0, p.classify.beatWin.Len())
	}
	warm := make([][]float64, p.leads)
	zero := make([]float64, p.chunkLen)
	for i := range warm {
		warm[i] = zero
	}
	e.Run(warm, nil) // warm-up only; zero input cannot fail usefully
	return e
}

// Plan returns the compiled plan this executor runs.
func (e *Exec) Plan() *Plan { return e.plan }

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
				mask := link.GoodLeads(leads, sg.fs, link.SQIConfig{}, sg.gateMin)
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

		case stageStreamChain:
			if sg.lanes == ShapeLeads {
				outs := e.outHdrs[si]
				for l := range leads {
					out := sg.out[l].slice(e.slab)[:n]
					e.runStreamChain(si, sg, leads[l], out)
					outs[l] = out
				}
				leads = outs[:len(leads)]
			} else {
				out := sg.out[0].slice(e.slab)[:n]
				e.runStreamChain(si, sg, series, out)
				series = out
			}

		case stageMedian:
			if err := e.runLanes(si, sg, &leads, &series, n, e.medianLane); err != nil {
				return Result{}, err
			}

		case stageErode:
			if err := e.runLanes(si, sg, &leads, &series, n, func(x, out []float64, k int) error {
				return morpho.ErodeFlatInto(x, k, out, &e.ms)
			}); err != nil {
				return Result{}, err
			}

		case stageDilate:
			if err := e.runLanes(si, sg, &leads, &series, n, func(x, out []float64, k int) error {
				return morpho.DilateFlatInto(x, k, out, &e.ms)
			}); err != nil {
				return Result{}, err
			}

		case stageOpen:
			if err := e.runLanes(si, sg, &leads, &series, n, func(x, out []float64, k int) error {
				return morpho.OpenFlatInto(x, k, out, &e.ms)
			}); err != nil {
				return Result{}, err
			}

		case stageClose:
			if err := e.runLanes(si, sg, &leads, &series, n, func(x, out []float64, k int) error {
				return morpho.CloseFlatInto(x, k, out, &e.ms)
			}); err != nil {
				return Result{}, err
			}

		case stageMorphFilter:
			outs := e.outHdrs[si]
			for l := range leads {
				out := sg.out[l].slice(e.slab)[:n]
				if err := morpho.FilterInto(leads[l], sg.fcfg, out, &e.ms); err != nil {
					return Result{}, err
				}
				outs[l] = out
			}
			leads = outs[:len(leads)]

		case stageFilterCombine:
			series = e.runFilterCombine(sg, leads, n)

		case stageCombine:
			series = dsp.CombineRMSInto(leads, sg.out[0].slice(e.slab)[:n])

		case stageAtrous:
			hdrs := e.outHdrs[si]
			for k := range sg.out {
				hdrs[k] = sg.out[k].slice(e.slab)[:n]
			}
			got, err := wavelet.AtrousInto(series, sg.scales, hdrs[:sg.scales], &e.ws)
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
			res.Measurements = sg.enc.EncodeLeads(leads)

		case stageQuantize:
			for li := range res.Measurements {
				q, err := cs.NewQuantizer(sg.bits, cs.AutoScale(res.Measurements[li], 1.05))
				if err != nil {
					return Result{}, err
				}
				res.Measurements[li], _ = q.QuantizeSlice(res.Measurements[li])
			}

		case stagePacketRaw:
			res.HasPacket = true
			res.PacketBytes = (len(leads)*n*sg.bits + 7) / 8

		case stagePacketMeas:
			res.HasPacket = true
			res.PacketBytes = (len(res.Measurements[0])*len(res.Measurements)*sg.bits + 7) / 8
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

// runLanes applies a lane-wise kernel to every lane of the current
// leads (or the single series), advancing the value to this stage's
// arena outputs.
func (e *Exec) runLanes(si int, sg *stage, leads *[][]float64, series *[]float64, n int,
	kernel func(x, out []float64, k int) error) error {
	if sg.lanes == ShapeLeads {
		outs := e.outHdrs[si]
		for l := range *leads {
			out := sg.out[l].slice(e.slab)[:n]
			if err := kernel((*leads)[l], out, sg.k); err != nil {
				return err
			}
			outs[l] = out
		}
		*leads = outs[:len(*leads)]
		return nil
	}
	out := sg.out[0].slice(e.slab)[:n]
	if err := kernel(*series, out, sg.k); err != nil {
		return err
	}
	*series = out
	return nil
}

// medianLane replicates dsp.MedianFilter (centred window, edge
// replication) with the executor's reusable window and sort space.
func (e *Exec) medianLane(x, out []float64, k int) error {
	n := len(x)
	half := k / 2
	win := e.medianWin[:k]
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			idx := i - half + j
			if idx < 0 {
				idx = 0
			}
			if idx >= n {
				idx = n - 1
			}
			win[j] = x[idx]
		}
		out[i], e.medianSort = dsp.MedianInto(win, e.medianSort)
	}
	return nil
}

// runStreamChain applies the fused FIR/biquad run to one lane with all
// element states reset, exactly one pass over the signal. Per-sample
// interleaving is bit-identical to sequential whole-signal application
// because each element's state depends only on its own input prefix.
func (e *Exec) runStreamChain(si int, sg *stage, x, out []float64) {
	frs := e.firs[si]
	bqs := e.bqs[si]
	for ei := range sg.elems {
		if sg.elems[ei].biquad {
			bqs[ei] = bqState{}
		} else {
			f := &frs[ei]
			for i := range f.delay {
				f.delay[i] = 0
			}
			f.pos = 0
		}
	}
	for i, v := range x {
		for ei := range sg.elems {
			el := &sg.elems[ei]
			if el.biquad {
				s := &bqs[ei]
				y := el.b0*v + s.z1
				s.z1 = el.b1*v - el.a1*y + s.z2
				s.z2 = el.b2*v - el.a2*y
				v = y
			} else {
				f := &frs[ei]
				f.delay[f.pos] = v
				acc := 0.0
				idx := f.pos
				for _, t := range el.taps {
					acc += t * f.delay[idx]
					idx--
					if idx < 0 {
						idx = len(f.delay) - 1
					}
				}
				f.pos++
				if f.pos == len(f.delay) {
					f.pos = 0
				}
				v = acc
			}
		}
		out[i] = v
	}
}

// runFilterCombine is the fused morphological conditioning filter +
// RMS lead combiner: the filtered leads never materialise. Per output
// element the floating-point operation sequence — the open/close
// average, the square, the across-lead accumulation order and the
// final sqrt(sum*inv) — matches the unfused FilterInto + CombineRMSInto
// pair exactly, so the fusion is bit-identical.
func (e *Exec) runFilterCombine(sg *stage, leads [][]float64, n int) []float64 {
	t := sg.tmp[0].slice(e.slab)[:n]
	opened := sg.tmp[1].slice(e.slab)[:n]
	baseline := sg.tmp[2].slice(e.slab)[:n]
	corrected := sg.tmp[3].slice(e.slab)[:n]
	o := sg.tmp[4].slice(e.slab)[:n]
	cl := sg.tmp[5].slice(e.slab)[:n]
	cm := sg.out[0].slice(e.slab)[:n]
	for i := range cm {
		cm[i] = 0
	}
	inv := 1 / float64(len(leads))
	for _, x := range leads {
		// Baseline estimate: opening with l0 then closing with lc.
		morpho.ErodeFlatInto(x, sg.l0, t, &e.ms)
		morpho.DilateFlatInto(t, sg.l0, opened, &e.ms)
		morpho.DilateFlatInto(opened, sg.lc, t, &e.ms)
		morpho.ErodeFlatInto(t, sg.lc, baseline, &e.ms)
		for i := 0; i < n; i++ {
			corrected[i] = x[i] - baseline[i]
		}
		// Noise suppression: open/close average with the short SE.
		morpho.ErodeFlatInto(corrected, sg.kn, t, &e.ms)
		morpho.DilateFlatInto(t, sg.kn, o, &e.ms)
		morpho.DilateFlatInto(corrected, sg.kn, t, &e.ms)
		morpho.ErodeFlatInto(t, sg.kn, cl, &e.ms)
		for i := 0; i < n; i++ {
			f := 0.5 * (o[i] + cl[i])
			cm[i] += f * f
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
// (the beat keeps its default label, as in batch processing).
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
