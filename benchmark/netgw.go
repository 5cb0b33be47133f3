package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
	"wbsn/internal/energy"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/netgw"
	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

// netgw-cold2: an in-process netgw.Serve with wbsn-gateway's defaults
// (cold fixed-budget solver, batch 1, GOMAXPROCS engine workers) and two
// closed-loop senders over loopback, one connection each, replaying
// pre-encoded records under fresh stream IDs with netgw.SendRecord.
const (
	netSenders = 2
	netRecords = 16
	netRecordS = 8.0
	// netPerBatch is the records each sender delivers between two
	// calibration slices (~0.25 s of work at 4 windows per record).
	netPerBatch = 2
)

// netTraffic is the replay set: each record's link-encoded frames and
// the in-process reference reconstruction of the same decoded frames.
type netTraffic struct {
	frames  [][][]byte
	digests []uint64
	samples []int
	// tp/fn score the reference's gateway-side beats; prd is the mean
	// per-record reconstruction PRD; frameUJ the mean ideal radio cost
	// of one encoded window.
	tp, fn       int
	prd, frameUJ float64
	// node is the encoding side's spans (ecg synthesis, node stream).
	node ledger
}

// buildNetTraffic synthesises the records (record r takes cohort class
// r mod 4, so every seed has the same class mix), encodes them through the CS node and the link codec — v2
// frames carrying trace IDs when traced — and decodes each frame's
// bytes through an inline receiver for the reference digest.
func buildNetTraffic(seed int64, ncfg core.Config, gcfg gateway.Config, traced bool) (*netTraffic, error) {
	node, err := core.NewNode(ncfg)
	if err != nil {
		return nil, err
	}
	coh := newCohort(seed)
	for r := range coh.class {
		coh.class[r] = r % numClasses
	}
	var col *trace.Collector
	if traced {
		col = trace.New(64, 1, 1)
	}
	radio := energy.DefaultRadio()
	t := &netTraffic{}
	var frameJ float64
	for r := 0; r < netRecords; r++ {
		sc := coh.scenario(r)
		ecfg := ecg.Config{Seed: coh.base + int64(r), Duration: netRecordS}
		if sc.Noise != nil {
			ecfg.Noise = *sc.Noise
		}
		if sc.Rhythm != nil {
			ecfg.Rhythm = *sc.Rhythm
		}
		t0 := time.Now()
		rec := ecg.Generate(ecfg)
		t.node.span(layerECG, t0)
		stream, err := node.NewStream()
		if err != nil {
			return nil, err
		}
		if col != nil {
			stream.SetTrace(col.Session(uint64(r)), uint32(r)+1)
		}
		t0 = time.Now()
		evs, err := stream.PushBlock(rec.Leads)
		if err != nil {
			return nil, err
		}
		tail, err := stream.Flush()
		t.node.span(layerCore, t0)
		if err != nil {
			return nil, err
		}
		rx, err := gateway.NewReceiver(gcfg)
		if err != nil {
			return nil, err
		}
		var frames [][]byte
		for _, e := range append(evs, tail...) {
			if e.Kind != core.EventPacket || e.Measurements == nil {
				continue
			}
			p := link.Packet{Seq: uint32(len(frames)), WindowStart: uint32(e.At), Measurements: e.Measurements}
			if traced {
				p.Trace, p.EncodeNs = e.Trace, e.EncodeNs
			}
			f, err := link.Encode(p)
			if err != nil {
				return nil, err
			}
			frames = append(frames, f)
			frameJ += radio.TxEnergyJ(len(f))
			t.node.packets++
			t.node.txBytes += e.Bytes
			// The reference decodes the frame's bytes, as the server will.
			pkt, err := link.Decode(f)
			if err != nil {
				return nil, err
			}
			if err := rx.ConsumePacket(pkt.Measurements); err != nil {
				return nil, err
			}
		}
		if len(frames) == 0 {
			return nil, fmt.Errorf("record %d produced no CS windows", r)
		}
		beats, err := rx.Delineate()
		if err != nil {
			return nil, err
		}
		ev := delineation.Evaluate(rec, beats, delineation.DefaultTolerances())
		t.tp += ev.R.TP
		t.fn += ev.R.FN
		t.prd += prdPercent(rec.Leads, rx.Signal()) / netRecords
		t.frames = append(t.frames, frames)
		t.digests = append(t.digests, netgw.SignalDigest(rx.Signal()))
		t.samples = append(t.samples, rx.SamplesReceived())
	}
	t.frameUJ = frameJ / float64(t.node.packets) * 1e6
	return t, nil
}

// prdPercent is the percent RMS difference between the sent and the
// reconstructed leads over their overlapping span.
func prdPercent(orig, recon [][]float64) float64 {
	var num, den float64
	for li := range orig {
		if li >= len(recon) {
			break
		}
		n := min(len(orig[li]), len(recon[li]))
		for i := 0; i < n; i++ {
			d := orig[li][i] - recon[li][i]
			num += d * d
			den += orig[li][i] * orig[li][i]
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return 100 * math.Sqrt(num/den)
}

// netPhase is the measured work against one server: batches of
// netPerBatch records per sender, each batch followed by a calibration
// slice. With a telemetry set the server traces every window and the
// phase builds the ledger from it.
type netPhase struct {
	srv    *netgw.Server
	tr     *netTraffic
	set    *telemetry.Set
	t      timing
	led    ledger
	frames int
	// selfMs is each record's round trip minus its windows' decode.
	selfMs []float64
}

// batch runs one batch of records and the calibration slice after it.
func (ph *netPhase) batch(pc *paced, seed int64, ids *atomic.Uint64, out *outcome) {
	srv, tr := ph.srv, ph.tr
	leds := make([]ledger, netSenders)
	selfs := make([][]float64, netSenders)
	lats := make([][]float64, netSenders)
	oks := make([]int, netSenders)
	frames := make([]int, netSenders)
	var failed atomic.Int64
	wall, f, _ := pc.slice(func() error {
		var wg sync.WaitGroup
		for s := 0; s < netSenders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				led := &leds[s]
				t0 := time.Now()
				for k := 0; k < netPerBatch; k++ {
					n := ids.Add(1)
					r := int(n % netRecords)
					id := uint64(seed)<<32 + n
					ts := time.Now()
					sr, err := netgw.SendRecord(netgw.ClientConfig{Addr: srv.Addr(), StreamID: id, JitterSeed: seed + int64(n)}, tr.frames[r])
					rtt := time.Since(ts)
					if err != nil || sr.Report.Digest != tr.digests[r] || sr.Report.Filled != 0 || sr.Report.Samples != tr.samples[r] {
						failed.Add(1)
						fmt.Printf("FAIL: stream %d record %d: err %v, report %s, want digest %016x\n", id, r, err, sr.Report, tr.digests[r])
					} else {
						oks[s]++
						lats[s] = append(lats[s], float64(rtt)/1e6)
					}
					frames[s] += sr.FramesSent
					if ph.set != nil {
						// The round trip less its windows' server spans is
						// netgw's own row.
						ring := ph.set.Trace.Session(id)
						led.ns[layerNetGW] += int64(rtt)
						led.delivered += len(tr.frames[r])
						decode := int64(0)
						for seq := uint32(1); seq <= uint32(len(tr.frames[r])); seq++ {
							if w, ok := led.takeWindow(ring, trace.NewID(uint32(r)+1, seq), layerNetGW); ok {
								decode += w.Spans[trace.KindDecode].DurNs
							}
						}
						selfs[s] = append(selfs[s], float64(int64(rtt)-decode)/1e6)
					}
					srv.EvictSession(id)
				}
				led.wall += int64(time.Since(t0))
			}(s)
		}
		wg.Wait()
		return nil
	})
	done := 0
	var all []float64
	for s := 0; s < netSenders; s++ {
		ph.led.merge(&leds[s])
		ph.selfMs = append(ph.selfMs, selfs[s]...)
		all = append(all, lats[s]...)
		ph.frames += frames[s]
		done += oks[s]
	}
	ph.t.add(wall, f, float64(done)*netRecordS, all)
	out.attempted += netSenders * netPerBatch
	out.failed += int(failed.Load())
}

func netServer(gcfg gateway.Config, set *telemetry.Set) (*netgw.Server, error) {
	return netgw.Serve(netgw.ServerConfig{Addr: "127.0.0.1:0", Gateway: gcfg, Telemetry: set})
}

// warmPool holds 2×netSenders sessions open at once before anything is
// measured. A sender's evicted session returns its receiver to the
// server's pool asynchronously, so while measuring up to two sessions
// per sender hold receivers; warming to that count keeps the pool (and
// the live heap) the same size in every run.
func warmPool(srv *netgw.Server, tr *netTraffic, seed int64, ids *atomic.Uint64) error {
	var wg sync.WaitGroup
	streams := make([]uint64, 2*netSenders)
	errs := make([]error, len(streams))
	for i := range streams {
		n := ids.Add(1)
		streams[i] = uint64(seed)<<32 + n
		wg.Add(1)
		go func(i int, n uint64) {
			defer wg.Done()
			_, errs[i] = netgw.SendRecord(netgw.ClientConfig{Addr: srv.Addr(), StreamID: streams[i], JitterSeed: seed + int64(n)}, tr.frames[n%netRecords])
		}(i, n)
	}
	wg.Wait()
	for _, id := range streams {
		srv.EvictSession(id)
	}
	return errors.Join(errs...)
}

// runNetGW measures netgw-cold2: setup, then record batches against a
// fresh server; the traced run alternates them with batches against a
// server with full telemetry and window tracing.
func runNetGW(p params) (*outcome, error) {
	ncfg, gcfg, err := netgw.GatewayConfigFor(firmwareSeed, 60, 0, 0, false)
	if err != nil {
		return nil, err
	}
	tr, err := buildNetTraffic(p.seed, ncfg, gcfg, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	cal := newCalibrator(200*time.Millisecond, runtime.GOMAXPROCS(0))
	pc := newPaced(cal)
	var ids atomic.Uint64
	plain := &netPhase{tr: tr}
	if plain.srv, err = netServer(gcfg, nil); err != nil {
		return nil, err
	}
	phases := []*netPhase{plain}
	var traced *netPhase
	if p.trace {
		// The traced server gets v2 frames carrying trace IDs and full
		// telemetry. Its batches alternate with the untraced server's,
		// so host drift during the run falls on both alike.
		traced = &netPhase{set: telemetry.NewSet(telemetry.NewRegistry())}
		traced.tr, err = buildNetTraffic(p.seed, ncfg, gcfg, true)
		if err == nil {
			traced.srv, err = netServer(gcfg, traced.set)
		}
		if err != nil {
			plain.srv.Close()
			return nil, err
		}
		phases = append(phases, traced)
	}
	for _, ph := range phases {
		if err == nil {
			err = warmPool(ph.srv, ph.tr, p.seed, &ids)
		}
	}
	for err == nil && pc.spent < p.seconds {
		for _, ph := range phases {
			ph.batch(pc, p.seed, &ids, out)
		}
	}
	var ms runtime.MemStats
	if err == nil {
		ms = liveHeap()
	}
	for _, ph := range phases {
		if cerr := ph.srv.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	// Setup is timed last: its throwaway constructions fill the
	// process-wide decoder cache, which must not count in the live heap.
	setupRaw, setupNorm, err := measureSetup(func(i int) (time.Duration, error) {
		_, g, err := netgw.GatewayConfigFor(setupSeedBase+int64(i), 60, 0, 0, false)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		srv, err := netServer(g, nil)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, srv.Close()
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("records: %d distinct × %.0f s (%d windows each), record r in cohort class r mod %d\n", netRecords, netRecordS, len(tr.frames[0]), numClasses)
	fmt.Printf("verified: %d of %d records bit-identical to the in-process reference\n", out.attempted-out.failed, out.attempted)
	windows := len(plain.t.latRaw) * len(tr.frames[0])
	fmt.Printf("windows: %d sent over TCP, lost 0 (reliable transport), retransmitted %.2f%% (rewound frames), warm-reset 0 (cold solver)\n",
		windows, 100*ratio(float64(plain.frames-windows), float64(windows)))
	m := out.metrics
	if !p.trace {
		m["heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
		m["qrs_se_pct"] = 100 * float64(tr.tp) / float64(tr.tp+tr.fn)
		m["prd_pct"] = tr.prd
		m["radio_uj_per_window"] = tr.frameUJ
		raw := plain.t.endToEnd(m, setupRaw, setupNorm)
		printRaw(raw, cal, fmt.Sprintf("%d records over %d senders", len(plain.t.latRaw), netSenders))
		return out, nil
	}

	m["bench.ledger_closure_pct"] = traced.led.close(out)
	_, rtfPlain := plain.t.rtf()
	_, rtfTraced := traced.t.rtf()
	m["bench.trace_overhead_pct"] = 100 * (rtfPlain - rtfTraced) / rtfPlain
	fmt.Printf("trace overhead: untraced rtf %.1f, traced rtf %.1f (normalised)\n", rtfPlain, rtfTraced)
	for k, v := range plain.t.endToEnd(map[string]float64{}, setupRaw, setupNorm) {
		m["bench.raw."+k] = v
	}
	m["bench.calib_rate"] = median(cal.rates)
	records := float64(len(traced.t.latRaw))
	sim := float64(netRecords) * netRecordS
	m["ecg.ns_per_sim_s"] = float64(traced.tr.node.ns[layerECG]) / sim
	m["core.ns_per_sim_s"] = float64(traced.tr.node.ns[layerCore]) / sim
	m["core.tx_bytes_per_window"] = ratio(float64(traced.tr.node.txBytes), float64(traced.tr.node.packets))
	gatewayMetrics(m, traced.set, traced.led.queueWaitMs, float64(traced.set.Gateway.Decoded.Value()))
	m["netgw.ms_per_record"] = median(traced.selfMs)
	m["netgw.frames_per_record"] = ratio(float64(traced.frames), records)
	// The TCP transport replaces the radio hop, and the server neither
	// delineates nor scores: those layers are not on this path.
	for _, k := range []string{"link.ns_per_window", "link.attempts_per_window", "link.lost_pct",
		"gateway.delineate_ns_per_sim_s", "delineation.eval_ns_per_sim_s",
		"fleet.planned_bytes_per_patient", "fleet.observed_bytes_per_patient"} {
		m[k] = 0
	}
	return out, nil
}
