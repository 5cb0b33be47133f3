package netgw

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wbsn/internal/cohort"
	"wbsn/internal/core"
	"wbsn/internal/ecg"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/telemetry/trace"
)

// ErrLoadgen is returned for invalid load-generator configurations.
var ErrLoadgen = errors.New("netgw: invalid loadgen configuration")

// GatewayConfigFor derives the matched (node, gateway) configuration
// pair both sides of the wire must share — one sensing-matrix seed,
// one solver setting, like a deployed firmware image. wbsn-gateway and
// wbsn-loadgen both build their configuration through this function,
// so they agree by construction.
func GatewayConfigFor(seed int64, csRatio float64, solverIters int, solverTol float64, warm bool) (core.Config, gateway.Config, error) {
	if csRatio <= 0 {
		csRatio = 60
	}
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: csRatio, Seed: seed})
	if err != nil {
		return core.Config{}, gateway.Config{}, err
	}
	ncfg := node.Config()
	gcfg := gateway.MatchNode(ncfg)
	if solverIters > 0 {
		gcfg.Solver.Iters = solverIters
	}
	gcfg.Solver.Tol = solverTol
	gcfg.WarmStart = warm
	return ncfg, gcfg, nil
}

// LoadgenConfig parameterises a loopback replay of fleet traffic
// against a running gateway server.
type LoadgenConfig struct {
	// Addr is the gateway address.
	Addr string
	// Streams is the concurrent stream count (default 8).
	Streams int
	// Records is the number of distinct synthesised records the streams
	// share round-robin (default min(Streams, 8)): record r is the
	// cohort's network record r, so every four records carry one of
	// each patient class. Record synthesis and in-process verification
	// cost scale with Records, not Streams.
	Records int
	// DurationS is the per-record length in seconds (default 8).
	DurationS float64
	// Seed is the sensing-matrix seed and the cohort seed of the
	// records; it also derives stream IDs and per-stream jitter.
	Seed int64
	// IDBase, when nonzero, overrides the base stream ID (default
	// Seed<<32). Successive runs against one server must use distinct
	// bases: a reused ID re-attaches to the finished session and is
	// answered from its cached digest instead of decoding anything.
	IDBase uint64
	// CSRatio, SolverIters, SolverTol, WarmStart mirror the server's
	// flags; they parameterise GatewayConfigFor on this side.
	CSRatio     float64
	SolverIters int
	SolverTol   float64
	WarmStart   bool
	// RunFor, when positive, keeps every stream looping (a fresh
	// session per record) until the deadline; zero sends exactly one
	// record per stream.
	RunFor time.Duration
	// Verify decodes each distinct record once in-process and compares
	// every stream's server digest against it — the bit-identity check.
	Verify bool
	// Trace link-encodes the replay set as version-4 (traced) frames:
	// each window carries its node-minted trace ID and encode duration,
	// so the server's /traces trees span both sides of the wire. The
	// 12-bit measurement codes — and therefore every digest — are
	// unchanged.
	// Streams replaying the same record reuse its trace IDs; IDs only
	// need to be unique within a session, and every (stream, record)
	// pass is its own session.
	Trace bool
	// Client is the per-stream sender template (Addr, StreamID and
	// JitterSeed are filled per stream); its Faults field arms the
	// transport fault injector.
	Client ClientConfig
	// Logf, when set, receives per-stream failure lines.
	Logf func(format string, args ...any)
}

func (c LoadgenConfig) withDefaults() LoadgenConfig {
	out := c
	if out.Streams <= 0 {
		out.Streams = 8
	}
	if out.Records <= 0 {
		out.Records = out.Streams
		if out.Records > 8 {
			out.Records = 8
		}
	}
	if out.DurationS <= 0 {
		out.DurationS = 8
	}
	return out
}

// LoadgenResult aggregates one loadgen run.
type LoadgenResult struct {
	// Streams is the concurrent stream count; RecordsDone the records
	// fully delivered and digested; Failures the streams that gave up;
	// Mismatches the records whose server digest disagreed with the
	// in-process reconstruction (must be zero).
	Streams     int
	RecordsDone int
	Failures    int
	Mismatches  int
	// WindowsDone counts the windows of completed records; FramesSent
	// every data frame written including retransmits; Resumes, Rewinds
	// and Redials the fault-recovery work.
	WindowsDone int
	FramesSent  int
	Resumes     int
	Rewinds     int
	Redials     int
	// Elapsed is the wall time of the replay; RecordsPerSec and
	// WindowsPerSec the sustained server-side completion rates.
	Elapsed       float64
	RecordsPerSec float64
	WindowsPerSec float64
}

func (r *LoadgenResult) String() string {
	return fmt.Sprintf("streams %d records %d (%.1f rec/s, %.1f win/s) failures %d mismatches %d resumes %d rewinds %d redials %d frames %d",
		r.Streams, r.RecordsDone, r.RecordsPerSec, r.WindowsPerSec,
		r.Failures, r.Mismatches, r.Resumes, r.Rewinds, r.Redials, r.FramesSent)
}

// traffic is the pre-encoded replay set: one window batch per distinct
// record, already link-encoded, plus the expected in-process digests.
type traffic struct {
	ncfg    core.Config
	gcfg    gateway.Config
	frames  [][][]byte // [record][seq] -> encoded link packet
	digests []uint64   // expected digest per record (Verify only)
}

// buildTraffic synthesises the records — the cohort's network records
// under Seed (cohort.NetRecord), the same seed as the sensing matrix —
// runs their leads through the CS node to produce the measurement
// windows, link-encodes each window, and — when verify is on —
// reconstructs each record in-process to pin the expected digest.
func buildTraffic(c LoadgenConfig) (*traffic, error) {
	ncfg, gcfg, err := GatewayConfigFor(c.Seed, c.CSRatio, c.SolverIters, c.SolverTol, c.WarmStart)
	if err != nil {
		return nil, err
	}
	t := &traffic{ncfg: ncfg, gcfg: gcfg}
	node, err := core.NewNode(ncfg)
	if err != nil {
		return nil, err
	}
	// A discard collector gives the node streams a ring to mint trace
	// IDs (and measure encode durations) into; nothing reads it — the
	// server side rebuilds the node spans from the wire-carried fields.
	var discard *trace.Collector
	if c.Trace {
		discard = trace.New(64, 1, 1)
	}
	for r := 0; r < c.Records; r++ {
		rec := ecg.Generate(cohort.NetRecord(c.Seed, r, c.DurationS))
		stream, err := node.NewStream()
		if err != nil {
			return nil, err
		}
		if discard != nil {
			stream.SetTrace(discard.Session(uint64(r)), uint32(r)+1)
		}
		events, err := stream.PushBlock(rec.Leads)
		if err != nil {
			return nil, err
		}
		var frames [][]byte
		var rx *gateway.Receiver
		if c.Verify {
			rx, err = gateway.NewReceiver(gcfg)
			if err != nil {
				return nil, err
			}
		}
		for _, e := range events {
			if e.Kind != core.EventPacket || e.Measurements == nil {
				continue
			}
			seq := uint32(len(frames))
			p := link.Packet{Seq: seq, WindowStart: uint32(e.At), Measurements: e.Measurements}
			if c.Trace {
				p.Trace, p.EncodeNs = e.Trace, e.EncodeNs
			}
			f, err := link.Encode(p)
			if err != nil {
				return nil, err
			}
			frames = append(frames, f)
			if rx != nil {
				// The reference consumes the encoded frame's decode, not the
				// raw measurements: the link codec carries the node's 12-bit
				// codes under a per-lead exponent (as the fleet's radio links
				// do), and bit-identity is judged against the same bytes the
				// server will decode.
				pkt, err := link.Decode(f)
				if err != nil {
					return nil, err
				}
				if err := rx.ConsumePacket(pkt.Measurements); err != nil {
					return nil, err
				}
			}
		}
		if len(frames) == 0 {
			return nil, fmt.Errorf("%w: record %d produced no CS windows", ErrLoadgen, r)
		}
		t.frames = append(t.frames, frames)
		if rx != nil {
			t.digests = append(t.digests, SignalDigest(rx.Signal()))
		}
	}
	return t, nil
}

// RunLoadgen replays fleet traffic over the wire: Streams concurrent
// senders, each delivering records (round-robin over the distinct
// record set) to the gateway at Addr, with optional transport fault
// injection and in-process digest verification.
func RunLoadgen(cfg LoadgenConfig) (*LoadgenResult, error) {
	c := cfg.withDefaults()
	t, err := buildTraffic(c)
	if err != nil {
		return nil, err
	}
	res := &LoadgenResult{Streams: c.Streams}
	var mu sync.Mutex
	var idCounter atomic.Uint64
	idBase := c.IDBase
	if idBase == 0 {
		idBase = uint64(c.Seed) << 32
	}
	deadline := time.Time{}
	if c.RunFor > 0 {
		deadline = time.Now().Add(c.RunFor)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.Streams; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := idCounter.Add(1) - 1
				if c.RunFor > 0 {
					if !time.Now().Before(deadline) {
						return
					}
				} else if n >= uint64(c.Streams) {
					return
				}
				rec := int(n % uint64(len(t.frames)))
				ccfg := c.Client
				ccfg.Addr = c.Addr
				ccfg.StreamID = idBase + n
				ccfg.JitterSeed = c.Seed + int64(n)
				sr, err := SendRecord(ccfg, t.frames[rec])
				mu.Lock()
				if err != nil {
					res.Failures++
					if c.Logf != nil {
						c.Logf("stream %d: %v", ccfg.StreamID, err)
					}
				} else {
					res.RecordsDone++
					res.WindowsDone += len(t.frames[rec])
					if c.Verify {
						if sr.Report.Digest != t.digests[rec] || sr.Report.Filled > 0 {
							res.Mismatches++
							if c.Logf != nil {
								c.Logf("stream %d: DIGEST MISMATCH record %d: got %s want %016x",
									ccfg.StreamID, rec, sr.Report, t.digests[rec])
							}
						}
					}
				}
				res.FramesSent += sr.FramesSent
				res.Resumes += sr.Resumes
				res.Rewinds += sr.Rewinds
				res.Redials += sr.Redials
				mu.Unlock()
				if c.RunFor <= 0 {
					return
				}
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start).Seconds()
	if res.Elapsed > 0 {
		res.RecordsPerSec = float64(res.RecordsDone) / res.Elapsed
		res.WindowsPerSec = float64(res.WindowsDone) / res.Elapsed
	}
	return res, nil
}
