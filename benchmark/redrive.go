package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
	"wbsn/internal/fleet"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

// The traced fleet run. Cluster.RunRound calls every layer internally,
// so the benchmark cannot put spans around those calls; instead it
// re-drives the same sessions — same seeds, scenarios, topology, engine
// and warm-state tiering, through the same public layer calls — with a
// span around each call, and proves it did the same work by matching
// every patient's cold-tier counters against the untraced cluster. An
// untraced pass of the same re-drive is the trace-overhead baseline.

// counts are the PatientState fields the re-drive must reproduce.
type counts struct {
	Events, Packets, Delivered, Lost, Beats, TP, FP, FN uint32
	RadioEnergyJ                                        float64
}

func countsOf(st fleet.PatientState) counts {
	return counts{st.Events, st.Packets, st.Delivered, st.Lost, st.Beats, st.TP, st.FP, st.FN, st.RadioEnergyJ}
}

// sessionSeed mirrors the cluster's documented round-seed derivation:
// round 0 is Seed+p, later rounds mix the round through splitmix64. The
// counter match below fails loudly if the two ever diverge.
func sessionSeed(base int64, p, round int) int64 {
	if round == 0 {
		return base + int64(p)
	}
	x := uint64(base+int64(p)) ^ uint64(round)*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// timedSink wraps the receiver as the link's sink and accumulates the
// time spent inside it, so the link's self time can exclude it.
type timedSink struct {
	rx *gateway.Receiver
	ns int64
}

func (s *timedSink) ConsumePacket(m [][]float64) error {
	t0 := time.Now()
	err := s.rx.ConsumePacket(m)
	s.ns += int64(time.Since(t0))
	return err
}

func (s *timedSink) ConsumePacketTraced(m [][]float64, tid trace.ID, encodeNs int64) error {
	t0 := time.Now()
	err := s.rx.ConsumePacketTraced(m, tid, encodeNs)
	s.ns += int64(time.Since(t0))
	return err
}

func (s *timedSink) ConsumeLostPacket() {
	t0 := time.Now()
	s.rx.ConsumeLostPacket()
	s.ns += int64(time.Since(t0))
}

type rdRig struct {
	stream *core.Stream
	rx     *gateway.Receiver
	sink   timedSink
	ring   *trace.Ring
	block  [][]float64
	led    ledger
}

type redrive struct {
	cfg    fleet.ClusterConfig // effective configuration of the untraced cluster
	coh    *cohort
	traced bool
	node   *core.Node
	eng    *gateway.Engine
	tel    *telemetry.Set
	rigs   []*rdRig
	counts []counts
	// warm is the CarryWarm tier: one float32 snapshot per patient,
	// through the same public cs snapshot calls the cluster uses.
	warm        []float32
	warmValid   []bool
	leads, winN int
	stride      int
	sim         float64
}

// newRedrive prepares a re-drive of the cluster configured as cfg.
// Untraced, it records no spans and gives the program no trace rings.
func newRedrive(cfg fleet.ClusterConfig, coh *cohort, traced bool) (*redrive, error) {
	c := cfg.Fleet
	node, err := core.NewNode(c.Node)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	gw := telemetry.NewGatewayMetrics(reg, nil)
	d := &redrive{cfg: cfg, coh: coh, traced: traced, node: node, counts: make([]counts, c.Patients),
		tel: &telemetry.Set{Registry: reg, Gateway: gw, Solver: gw.Solver}}
	var col *trace.Collector
	if traced {
		col = trace.New(64, 1, 1)
	}
	nc := node.Config()
	var gcfg gateway.Config
	if nc.Mode == core.ModeCS {
		gcfg = gateway.MatchNode(nc)
		if c.SolverIters > 0 {
			gcfg.Solver.Iters = c.SolverIters
		}
		gcfg.Solver.Tol = c.SolverTol
		gcfg.WarmStart = c.WarmStart
		d.eng, err = gateway.NewEngine(gcfg, gateway.EngineConfig{
			Workers: c.EngineWorkers, Batch: c.EngineBatch, BatchWait: c.EngineBatchWait, Metrics: gw})
		if err != nil {
			return nil, err
		}
		if cfg.CarryWarm {
			d.leads, d.winN = nc.Leads, nc.CSWindow
			d.stride = cs.SnapshotLen(d.leads, d.winN)
			d.warm = make([]float32, c.Patients*d.stride)
			d.warmValid = make([]bool, c.Patients)
		}
	}
	for i := 0; i < cfg.Groups*cfg.GroupShards; i++ {
		st, err := node.NewStream()
		if err != nil {
			d.close()
			return nil, err
		}
		r := &rdRig{stream: st}
		if col != nil {
			r.ring = col.Session(uint64(i))
		}
		if d.eng != nil {
			r.rx, err = gateway.NewReceiver(gcfg)
			if err == nil {
				err = r.rx.AttachEngine(d.eng)
			}
			if err != nil {
				d.close()
				return nil, err
			}
			r.rx.SetTrace(r.ring)
			r.sink.rx = r.rx
		}
		d.rigs = append(d.rigs, r)
	}
	return d, nil
}

func (d *redrive) close() {
	if d.eng != nil {
		d.eng.Close()
	}
}

// now starts a span: the zero time on an untraced pass, which the
// ledger ignores.
func (d *redrive) now() time.Time {
	if !d.traced {
		return time.Time{}
	}
	return time.Now()
}

// linkCall runs a call into the link and, when traced, splits its time
// into the link's self time and its sink's (the receiver's).
func (d *redrive) linkCall(r *rdRig, call func() error) error {
	if !d.traced {
		return call()
	}
	sink0 := r.sink.ns
	t0 := time.Now()
	err := call()
	in := r.sink.ns - sink0
	r.led.ns[layerLink] += int64(time.Since(t0)) - in
	r.led.ns[layerGateway] += in
	return err
}

// round re-drives one scheduling round with the cluster's concurrency:
// Groups×GroupShards slot goroutines, each dealing its group's block of
// patients round-robin.
func (d *redrive) round(round int) error {
	P, G, S := d.cfg.Fleet.Patients, d.cfg.Groups, d.cfg.GroupShards
	perGroup := (P + G - 1) / G
	var wg sync.WaitGroup
	errs := make([]error, G*S)
	for g := 0; g < G; g++ {
		lo, hi := g*perGroup, min((g+1)*perGroup, P)
		for s := 0; s < S; s++ {
			wg.Add(1)
			go func(g, s int) {
				defer wg.Done()
				r := d.rigs[g*S+s]
				t0 := time.Now()
				for p := lo + s; p < hi; p += S {
					if err := d.session(r, p, round); err != nil {
						errs[g*S+s] = err
						break
					}
				}
				r.led.wall += int64(time.Since(t0))
			}(g, s)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	d.sim += float64(P) * d.cfg.SessionS
	return nil
}

// session mirrors one fleet session of patient p: synthesis, the node
// stream in 1-s blocks, the ARQ link into the receiver, remote
// delineation and scoring — with a span around every layer call.
func (d *redrive) session(r *rdRig, p, round int) error {
	c := d.cfg.Fleet
	led := &r.led
	seed := sessionSeed(c.Seed, p, round)
	sc := d.coh.scenario(p)
	ecfg := ecg.Config{Seed: seed, Duration: d.cfg.SessionS, Noise: c.Noise}
	if sc.Noise != nil {
		ecfg.Noise = *sc.Noise
	}
	if sc.Rhythm != nil {
		ecfg.Rhythm = *sc.Rhythm
	}
	t0 := d.now()
	rec := ecg.Generate(ecfg)
	led.span(layerECG, t0)

	// Trace IDs are unique per (round, patient), so a ring slot never
	// mixes two sessions' windows.
	hi := uint32(round*c.Patients + p + 1)
	t0 = d.now()
	r.stream.Reset()
	r.stream.SetTrace(r.ring, hi)
	led.span(layerCore, t0)
	var lk *link.Link
	if r.rx != nil {
		t0 = d.now()
		r.rx.Reset()
		if d.warm != nil && d.warmValid[p] {
			r.rx.WarmState().RestoreFrom(d.warm[p*d.stride:(p+1)*d.stride], d.leads, d.winN)
		}
		led.span(layerGateway, t0)
		t0 = d.now()
		chCfg := c.Channel
		if sc.Channel != nil {
			chCfg = *sc.Channel
			if chCfg.PBadToGood == 0 && chCfg.PGoodToBad == 0 {
				chCfg.PBadToGood = 1
			}
		}
		chCfg.Seed = seed
		ch, err := link.NewChannel(chCfg)
		if err != nil {
			return err
		}
		arq := c.ARQ
		if sc.ARQ != nil {
			arq = *sc.ARQ
		}
		arq.Seed = seed
		var sink link.Sink = r.rx
		if d.traced {
			sink = &r.sink
		}
		if lk, err = link.NewLink(arq, ch, sink); err != nil {
			return err
		}
		lk.SetTrace(r.ring)
		led.span(layerLink, t0)
	}

	var nodeBeats []delineation.BeatFiducials
	events, minted := 0, uint32(0)
	consume := func(evs []core.Event) error {
		for _, ev := range evs {
			events++
			switch ev.Kind {
			case core.EventPacket:
				led.packets++
				led.txBytes += ev.Bytes
				if ev.Measurements != nil && lk != nil {
					if ev.Trace != 0 {
						minted = ev.Trace.Seq()
					}
					err := d.linkCall(r, func() error {
						_, err := lk.SendTraced(ev.At, ev.Trace, ev.Measurements)
						return err
					})
					if err != nil {
						return err
					}
				}
			case core.EventBeat:
				nodeBeats = append(nodeBeats, ev.Beat.Fiducials)
			}
		}
		return nil
	}
	blockLen := max(int(c.BlockS*d.node.Config().Fs), 1)
	if cap(r.block) < len(rec.Leads) {
		r.block = make([][]float64, len(rec.Leads))
	}
	r.block = r.block[:len(rec.Leads)]
	for at := 0; at < rec.Len(); at += blockLen {
		end := min(at+blockLen, rec.Len())
		for li := range rec.Leads {
			r.block[li] = rec.Leads[li][at:end]
		}
		t0 = d.now()
		evs, err := r.stream.PushBlock(r.block)
		led.span(layerCore, t0)
		if err != nil {
			return err
		}
		if err := consume(evs); err != nil {
			return err
		}
	}
	t0 = d.now()
	evs, err := r.stream.Flush()
	led.span(layerCore, t0)
	if err != nil {
		return err
	}
	if err := consume(evs); err != nil {
		return err
	}

	recovered := nodeBeats
	var cnt counts
	if lk != nil {
		if err := d.linkCall(r, lk.Close); err != nil {
			return err
		}
		rep := lk.Report()
		cnt.Packets, cnt.Delivered, cnt.Lost = uint32(rep.Packets), uint32(rep.Delivered), uint32(rep.Lost)
		cnt.RadioEnergyJ = rep.EnergyJ
		led.windows += rep.Packets
		led.lost += rep.Lost
		led.attempts += rep.Attempts
		t0 = d.now()
		recovered, err = r.rx.Delineate()
		led.span(layerDelineate, t0)
		if err != nil {
			return err
		}
		if d.warm != nil {
			t0 = d.now()
			d.warmValid[p] = r.rx.WarmState().SnapshotInto(d.warm[p*d.stride:(p+1)*d.stride], d.leads, d.winN)
			led.span(layerGateway, t0)
		}
		if d.traced {
			// Split the sink's time: the program recorded each delivered
			// window's queue wait, decode and deliver under its trace ID;
			// lost windows have none of them.
			led.delivered += rep.Delivered
			for seq := uint32(1); seq <= minted; seq++ {
				led.takeWindow(r.ring, trace.NewID(hi, seq), layerGateway)
			}
		}
	}
	if len(rec.Beats) > 0 {
		t0 = d.now()
		ev := delineation.Evaluate(rec, recovered, delineation.DefaultTolerances())
		led.span(layerEval, t0)
		cnt.TP, cnt.FP, cnt.FN = uint32(ev.R.TP), uint32(ev.R.FP), uint32(ev.R.FN)
	}
	cnt.Events, cnt.Beats = uint32(events), uint32(len(recovered))
	acc := &d.counts[p]
	acc.Events += cnt.Events
	acc.Packets += cnt.Packets
	acc.Delivered += cnt.Delivered
	acc.Lost += cnt.Lost
	acc.Beats += cnt.Beats
	acc.TP += cnt.TP
	acc.FP += cnt.FP
	acc.FN += cnt.FN
	acc.RadioEnergyJ += cnt.RadioEnergyJ
	return nil
}

// traced is the per-layer run: one untraced cluster epoch (the
// reference for the counters), then the re-drive of the same rounds
// untraced (the trace-overhead baseline) and traced, all in calibrated
// slices.
func (w fleetWorkload) traced(p params, coh *cohort) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	cal := newCalibrator(60*time.Millisecond, runtime.GOMAXPROCS(0))
	pc := newPaced(cal)
	var plain timing
	ep, err := w.runEpoch(coh, pc, &plain, func() bool { return false })
	if err != nil {
		return nil, err
	}
	defer ep.cl.Close()
	out.attempted += ep.rounds * cohortPatients
	mem := ep.cl.Mem()

	// The two re-drives alternate slice by slice, so host drift during
	// the run falls on both alike.
	bareD, err := newRedrive(ep.cl.Config(), coh, false)
	if err != nil {
		return nil, err
	}
	defer bareD.close()
	d, err := newRedrive(ep.cl.Config(), coh, true)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var bare, traced timing
	for r := 0; r < w.epochRounds; r += w.sliceRounds {
		n := min(w.sliceRounds, w.epochRounds-r)
		for _, x := range []struct {
			d *redrive
			t *timing
		}{{bareD, &bare}, {d, &traced}} {
			wall, f, err := pc.slice(func() error { return x.d.rounds(r, n) })
			if err != nil {
				return nil, err
			}
			x.t.add(wall, f, float64(n*cohortPatients)*w.sessionS, nil)
		}
	}
	bareD.verify(ep.cl, out)
	d.verify(ep.cl, out)
	fmt.Printf("re-drive: %d rounds × %d patients, untraced and traced, reproduced the cluster's per-patient counters: %v\n",
		w.epochRounds, cohortPatients, out.failed == 0)

	var led ledger
	for _, r := range d.rigs {
		led.merge(&r.led)
	}
	m := out.metrics
	m["bench.ledger_closure_pct"] = led.close(out)
	_, rtfCluster := plain.rtf()
	_, rtfBare := bare.rtf()
	_, rtfTraced := traced.rtf()
	m["bench.trace_overhead_pct"] = 100 * (rtfBare - rtfTraced) / rtfBare
	fmt.Printf("trace overhead: untraced re-drive rtf %.1f, traced re-drive rtf %.1f (normalised)\n", rtfBare, rtfTraced)
	// RunRound also digests every reconstructed sample and beat, scores
	// PRD and batches the fleet rollups per session; the re-drive does
	// none of that, so that work is outside the ledger.
	fmt.Printf("fleet per-session work outside the ledger: cluster rtf %.1f against untraced re-drive rtf %.1f (normalised)\n", rtfCluster, rtfBare)
	setupRaw, setupNorm, err := w.measureSetup(coh)
	if err != nil {
		return nil, err
	}
	raw := plain.endToEnd(map[string]float64{}, setupRaw, setupNorm)
	for k, v := range raw {
		m["bench.raw."+k] = v
	}
	m["bench.calib_rate"] = median(cal.rates)

	sim := d.sim
	m["ecg.ns_per_sim_s"] = ratio(float64(led.ns[layerECG]), sim)
	m["core.ns_per_sim_s"] = ratio(float64(led.ns[layerCore]), sim)
	m["core.tx_bytes_per_window"] = ratio(float64(led.txBytes), float64(led.packets))
	m["link.ns_per_window"] = ratio(float64(led.ns[layerLink]), float64(led.windows))
	m["link.attempts_per_window"] = ratio(float64(led.attempts), float64(led.windows))
	m["link.lost_pct"] = 100 * ratio(float64(led.lost), float64(led.windows))
	m["gateway.delineate_ns_per_sim_s"] = ratio(float64(led.ns[layerDelineate]), sim)
	m["delineation.eval_ns_per_sim_s"] = ratio(float64(led.ns[layerEval]), sim)
	gatewayMetrics(m, d.tel, led.queueWaitMs, float64(led.windows))
	m["netgw.ms_per_record"] = 0
	m["netgw.frames_per_record"] = 0
	m["fleet.planned_bytes_per_patient"] = float64(mem.PlannedBytesPerPatient)
	m["fleet.observed_bytes_per_patient"] = mem.ObservedBytesPerPatient
	return out, nil
}

// rounds re-drives n rounds from round from.
func (d *redrive) rounds(from, n int) error {
	for i := from; i < from+n; i++ {
		if err := d.round(i); err != nil {
			return err
		}
	}
	return nil
}

// verify fails every patient whose re-driven counters differ from the
// cluster's after the same rounds.
func (d *redrive) verify(cl *fleet.Cluster, out *outcome) {
	out.attempted += cl.Config().Fleet.Patients
	for pt := range d.counts {
		if got, want := d.counts[pt], countsOf(cl.State(pt)); got != want {
			out.fail("re-driven patient %d (traced %v) counters %+v, cluster has %+v", pt, d.traced, got, want)
		}
	}
}

// gatewayMetrics reads the decode-side per-layer metrics from the
// program's own engine and solver counters, plus the queue-wait spans.
// offered is the windows offered to the gateway (lost ones included).
func gatewayMetrics(m map[string]float64, tel *telemetry.Set, queueWaitMs []float64, offered float64) {
	gw := tel.Gateway
	decoded := float64(gw.Decoded.Value())
	dec := gw.DecodeNs.Snapshot()
	iters := gw.Solver.Iters.Snapshot()
	m["cs.decode_ms_per_window"] = ratio(float64(dec.Sum), decoded) / 1e6
	m["cs.iters_per_window"] = ratio(float64(iters.Sum), float64(iters.Count))
	m["cs.ns_per_iter"] = ratio(float64(dec.Sum), float64(iters.Sum))
	m["cs.warm_resets_per_100win"] = 100 * ratio(float64(gw.Solver.WarmResets.Value()), offered)
	m["cs.cold_fallbacks_per_100win"] = 100 * ratio(float64(gw.Solver.ColdFallbacks.Value()), decoded)
	m["gateway.batch_windows_mean"] = ratio(decoded, float64(dec.Count))
	m["gateway.queue_wait_ms_p50"] = 0
	if len(queueWaitMs) > 0 {
		m["gateway.queue_wait_ms_p50"] = median(queueWaitMs)
	}
}
