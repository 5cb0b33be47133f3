package gateway

// The reconstruction engine parallelises the gateway's dominant cost —
// CS reconstruction, which ref [5] runs in real time on a smartphone —
// across worker goroutines. Reconstruction is a pure function of the
// measurements (the decoder holds only immutable derived state and
// per-call pooled scratch), so windows decoded concurrently are bit
// identical to serial decoding; the engine adds ordering on top so
// callers see results in submission order regardless of which worker
// finished first.
//
// Worker model: a fixed pool of Workers goroutines shares one bounded
// job queue. Each worker owns a cloned decoder (same sensing matrix and
// derived constants, private scratch pool) so hot-path buffers never
// migrate between cores. Submit blocks when the queue is full — the
// queue bound is the backpressure mechanism, no job is ever dropped.

import (
	"runtime"
	"sync"
	"time"

	"wbsn/internal/cs"
	"wbsn/internal/telemetry"
	"wbsn/internal/telemetry/trace"
)

// EngineConfig sizes the worker pool.
type EngineConfig struct {
	// Workers is the goroutine count; 0 selects GOMAXPROCS.
	Workers int
	// Queue is the bounded job-queue depth; 0 selects 2*Workers*Batch.
	Queue int
	// Batch is the most queued windows one worker dispatch reconstructs
	// in a single structure-of-arrays solver pass
	// (cs.ReconstructJointBatch). 0 or 1 dispatches one window at a time.
	// Batched dispatch is opportunistic — a worker takes whatever is
	// queued up to Batch, it never idles waiting for a full batch — and
	// per window the output is bit-identical at every fill level.
	Batch int
	// BatchWait bounds how long a worker holding a partial batch waits
	// for more windows before dispatching it; 0 dispatches immediately
	// with whatever the queue held (greedy-only formation). A small wait
	// trades first-window latency for fuller batches when submitters are
	// bursty but not saturating.
	BatchWait time.Duration
	// Metrics, when set, receives queue depth, worker utilisation and
	// decode latency. Pure observation — reconstruction output is
	// bit-identical with or without it.
	Metrics *telemetry.GatewayMetrics
}

func (c EngineConfig) withDefaults() EngineConfig {
	out := c
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Batch <= 0 {
		out.Batch = 1
	}
	if out.Queue <= 0 {
		out.Queue = 2 * out.Workers * out.Batch
	}
	return out
}

// Job is one submitted reconstruction window. Wait blocks until a
// worker has decoded it.
type Job struct {
	measurements [][]float64
	leads        [][]float64
	err          error
	done         chan struct{}
	// ws, when non-nil, warm-starts the solve from (and feeds back into)
	// the submitting stream's carried coefficients. The caller must not
	// have another job with the same ws in flight — warm windows of one
	// stream are sequential by construction.
	ws    *cs.WarmState
	stats cs.SolveStats
	// tid/tring, when set, receive the window's queue-wait and decode
	// spans; submitNs anchors the queue wait.
	tid      trace.ID
	tring    *trace.Ring
	submitNs int64
}

// Wait blocks until the job is decoded and returns the reconstructed
// leads (or the decode error).
func (j *Job) Wait() ([][]float64, error) {
	<-j.done
	return j.leads, j.err
}

// Engine fans CS windows across a pool of workers, each holding its own
// decoder clone. All methods are safe for concurrent use; results are
// delivered per job, so callers that need stream order wait on jobs in
// submission order (DecodeWindows does exactly that).
type Engine struct {
	cfg  Config
	ecfg EngineConfig
	m    int
	jobs chan *Job
	wg   sync.WaitGroup
	// mu serialises Submit against Close: Submit holds the read lock
	// across its channel send so Close (write lock) cannot close the
	// queue under an in-flight send.
	mu     sync.RWMutex
	closed bool
	tel    *telemetry.GatewayMetrics
}

// NewEngine builds a worker pool mirroring the given gateway Config.
// Every worker regenerates the shared sensing matrix from the seed and
// clones the derived solver state.
func NewEngine(cfg Config, ecfg EngineConfig) (*Engine, error) {
	c := cfg.withDefaults()
	base, m, err := c.buildDecoder()
	if err != nil {
		return nil, err
	}
	ec := ecfg.withDefaults()
	e := &Engine{cfg: c, ecfg: ec, m: m, jobs: make(chan *Job, ec.Queue), tel: ec.Metrics}
	if tm := e.tel; tm != nil {
		tm.Workers.Set(int64(ec.Workers))
	}
	for w := 0; w < ec.Workers; w++ {
		dec := base
		if w > 0 {
			dec = base.Clone()
		}
		e.wg.Add(1)
		go e.worker(dec)
	}
	return e, nil
}

func (e *Engine) worker(dec *cs.Decoder) {
	defer e.wg.Done()
	maxB := e.ecfg.Batch
	batch := make([]*Job, 0, maxB)
	// The batch items are per-worker and reused, so a dispatch allocates
	// nothing beyond the solver's output slices.
	slots := make([]cs.BatchItem, maxB)
	items := make([]*cs.BatchItem, maxB)
	for i := range items {
		items[i] = &slots[i]
	}
	var timer *time.Timer
	for {
		j, ok := <-e.jobs
		if !ok {
			return
		}
		batch = append(batch[:0], j)
		drained := false
		if maxB > 1 {
			drained = e.formBatch(&batch, &timer)
		}
		e.runBatch(dec, batch, items[:len(batch)])
		if drained {
			return
		}
	}
}

// formBatch tops the worker's batch (already holding one job) up to the
// configured capacity: first a non-blocking greedy drain of the queue,
// then — when BatchWait is set and slots remain — a deadline-bounded
// wait for late arrivals. Reports whether the job queue was closed, in
// which case the caller runs what it holds and exits.
func (e *Engine) formBatch(batch *[]*Job, timer **time.Timer) bool {
	maxB := e.ecfg.Batch
greedy:
	for len(*batch) < maxB {
		select {
		case j, ok := <-e.jobs:
			if !ok {
				return true
			}
			*batch = append(*batch, j)
		default:
			break greedy
		}
	}
	if e.ecfg.BatchWait <= 0 || len(*batch) >= maxB {
		return false
	}
	if *timer == nil {
		*timer = time.NewTimer(e.ecfg.BatchWait)
	} else {
		(*timer).Reset(e.ecfg.BatchWait)
	}
	for len(*batch) < maxB {
		select {
		case j, ok := <-e.jobs:
			if !ok {
				return true
			}
			*batch = append(*batch, j)
		case <-(*timer).C:
			return false
		}
	}
	if !(*timer).Stop() {
		<-(*timer).C
	}
	return false
}

// runBatch reconstructs one formed batch — any size, one window
// included — in one structure-of-arrays solver pass and fans results,
// stats and telemetry back to the individual jobs.
func (e *Engine) runBatch(dec *cs.Decoder, batch []*Job, items []*cs.BatchItem) {
	tm := e.tel
	anyTraced := false
	for _, j := range batch {
		if j.tring != nil && j.tid != 0 {
			anyTraced = true
			break
		}
	}
	var t0 time.Time
	if tm != nil {
		tm.QueueDepth.Add(int64(-len(batch)))
		tm.BusyWorkers.Add(1)
		if e.ecfg.Batch > 1 {
			tm.BatchWindows.Observe(uint64(len(batch)))
			tm.BatchFillPct.Observe(uint64(100 * len(batch) / e.ecfg.Batch))
		}
	}
	if tm != nil || anyTraced {
		t0 = time.Now()
	}
	if anyTraced {
		// Queue wait ends at worker pickup; record it before the solve so
		// an early tree reader sees the window parked, not missing.
		for _, j := range batch {
			if j.tring != nil && j.tid != 0 {
				j.tring.Record(j.tid, trace.KindQueueWait, j.submitNs, t0.UnixNano()-j.submitNs)
			}
		}
	}
	// Distinct streams never share a WarmState and each stream has at
	// most one job in flight (the SubmitWarm contract), so the batch
	// holds at most one window per warm state — exactly the
	// cs.BatchItem sequencing contract. A nil WarmState runs the
	// identical cold compute, so plain and warm jobs share one path.
	for i, j := range batch {
		*items[i] = cs.BatchItem{Y: j.measurements, Warm: j.ws}
	}
	dec.ReconstructJointBatch(items)
	for i, j := range batch {
		j.leads, j.stats, j.err = items[i].X, items[i].Stats, items[i].Err
		*items[i] = cs.BatchItem{} // drop the worker's references to the job
	}
	var dur time.Duration
	if tm != nil || anyTraced {
		dur = time.Since(t0)
	}
	if tm != nil {
		tm.BusyWorkers.Add(-1)
		tm.DecodeNs.ObserveDuration(dur)
	}
	for _, j := range batch {
		if tm != nil {
			tm.Stages.Record(telemetry.StageGatewayDecode, int64(dur))
			if j.err != nil {
				tm.DecodeErrors.Inc()
			} else {
				tm.Decoded.Inc()
				st := j.stats
				tm.Solver.Record(st.Iters, st.Restarts, st.EarlyExit, st.Warm, st.ColdFallback)
			}
		}
		if j.tring != nil && j.tid != 0 {
			j.tring.RecordDecode(j.tid, t0.UnixNano(), int64(dur), j.stats.Iters, len(batch))
		}
		close(j.done)
	}
}

// Submit enqueues one window for reconstruction and returns its Job.
// It validates the packet shape first, blocks while the queue is full,
// and returns ErrEngineClosed after Close.
func (e *Engine) Submit(measurements [][]float64) (*Job, error) {
	return e.SubmitWarm(measurements, nil)
}

// SubmitWarm is Submit with a stream's warm state attached to the job.
// The caller owns the sequencing contract: at most one in-flight job
// per WarmState, and windows of that stream submitted in order (Wait
// for each window before submitting the next).
func (e *Engine) SubmitWarm(measurements [][]float64, ws *cs.WarmState) (*Job, error) {
	return e.SubmitCtx(measurements, ws, 0, nil)
}

// SubmitCtx is SubmitWarm carrying a window's trace context: the
// worker records the job's queue-wait and decode spans under tid into
// ring. A zero tid or nil ring submits untraced (identical compute).
func (e *Engine) SubmitCtx(measurements [][]float64, ws *cs.WarmState, tid trace.ID, ring *trace.Ring) (*Job, error) {
	if len(measurements) != e.cfg.Leads {
		return nil, ErrGateway
	}
	for _, lead := range measurements {
		if len(lead) != e.m {
			return nil, ErrGateway
		}
	}
	j := &Job{measurements: measurements, done: make(chan struct{}), ws: ws}
	if ring != nil && tid != 0 {
		j.tid, j.tring = tid, ring
		j.submitNs = time.Now().UnixNano()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	// The depth gauge counts jobs committed to the queue but not yet
	// picked up; raising it before the (possibly blocking) send makes a
	// full queue visible as depth > capacity rather than hiding the
	// backpressure.
	if tm := e.tel; tm != nil {
		tm.Submitted.Inc()
		tm.QueueDepth.Add(1)
	}
	e.jobs <- j
	return j, nil
}

// DecodeWindows reconstructs a batch of windows and returns the results
// in submission order. Submission and collection are pipelined from a
// second goroutine so the batch may exceed the queue depth; the first
// decode error aborts the batch (remaining jobs still drain).
func (e *Engine) DecodeWindows(windows [][][]float64) ([][][]float64, error) {
	ch := make(chan *Job, len(windows))
	var submitErr error
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		defer close(ch)
		for _, w := range windows {
			j, err := e.Submit(w)
			if err != nil {
				submitErr = err
				return
			}
			ch <- j
		}
	}()
	out := make([][][]float64, 0, len(windows))
	var firstErr error
	for j := range ch {
		leads, err := j.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out = append(out, leads)
	}
	swg.Wait()
	if firstErr == nil {
		firstErr = submitErr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Close shuts the pool down after in-flight jobs finish. Further
// Submits fail with ErrEngineClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs)
	e.mu.Unlock()
	e.wg.Wait()
}
