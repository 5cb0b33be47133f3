package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: bucket i holds values whose
// bit length is i, i.e. bucket 0 is exactly 0 and bucket i (i ≥ 1)
// covers [2^(i-1), 2^i − 1]. 65 buckets span the whole uint64 range,
// so no configuration, no resizing and no allocation ever happens on
// the record path.
const histBuckets = 65

// Histogram is a lock-free fixed-bucket power-of-two histogram for
// latencies (nanoseconds) and sizes (bytes). Recording is four atomic
// operations; Snapshot assembles a consistent-enough view for
// monitoring (buckets are read without a barrier, so a snapshot taken
// mid-record may be off by the in-flight sample — acceptable for
// observability, and the price of a hot path with no locks).
// The zero value is ready to use; write methods are nil-safe.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // stored as value+1 so 0 means "unset"
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	for {
		m := h.min.Load()
		if m != 0 && v+1 >= m || h.min.CompareAndSwap(m, v+1) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveDuration records a latency.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// saturationBucket is the index of the final bucket, covering
// [2^63, 2^64-1]. No honest measurement lands there — a nanosecond
// duration of 2^63 is three centuries — so its occupancy flags a
// corrupted observation (most commonly a negative int64 cast to
// uint64). The soak watcher treats any saturated histogram as a
// failure signal.
const saturationBucket = histBuckets - 1

// Bucket is one non-empty histogram bucket in a snapshot: Count values
// were ≤ Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the read-side view of a histogram. Saturated is
// the overflow-bucket count (observations ≥ 2^63): always rendered,
// even at zero, so monitors can assert on its presence.
type HistogramSnapshot struct {
	Count     uint64   `json:"count"`
	Sum       uint64   `json:"sum"`
	Min       uint64   `json:"min"`
	Max       uint64   `json:"max"`
	Mean      float64  `json:"mean"`
	P50       uint64   `json:"p50"`
	P90       uint64   `json:"p90"`
	P99       uint64   `json:"p99"`
	Saturated uint64   `json:"saturated"`
	Buckets   []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if m := h.min.Load(); m > 0 {
		s.Min = m - 1
	}
	s.Max = h.max.Load()
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	var counts [histBuckets]uint64
	for i := range counts {
		if n := h.buckets[i].Load(); n > 0 {
			counts[i] = n
			s.Buckets = append(s.Buckets, Bucket{Le: bucketUpper(i), Count: n})
		}
	}
	s.Saturated = counts[saturationBucket]
	s.P50 = quantile(counts[:], s.Count, 0.50, s.Min, s.Max)
	s.P90 = quantile(counts[:], s.Count, 0.90, s.Min, s.Max)
	s.P99 = quantile(counts[:], s.Count, 0.99, s.Min, s.Max)
	return s
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// HistogramBatch accumulates observations locally — plain fields, no
// atomics — and folds them into a shared Histogram in one Flush. It is
// the bounded fan-in path for population-scale loops: a million
// per-patient observations from dozens of shard workers would otherwise
// contend on the same few cachelines, so each worker batches locally
// and flushes once per scheduling slice. The shared histogram's final
// contents are identical to per-observation recording (counts, sum,
// min/max and every bucket are additive); only the interleaving of the
// atomic adds changes. Not safe for concurrent use — one batch per
// worker.
type HistogramBatch struct {
	h       *Histogram
	count   uint64
	sum     uint64
	min     uint64 // value+1, 0 = unset (same convention as Histogram)
	max     uint64
	buckets [histBuckets]uint64
}

// Batch returns a local accumulator that flushes into h. A nil
// histogram yields a nil batch, whose methods are no-ops, so call sites
// thread optional telemetry without branching.
func (h *Histogram) Batch() *HistogramBatch {
	if h == nil {
		return nil
	}
	return &HistogramBatch{h: h}
}

// Observe records one value locally.
func (b *HistogramBatch) Observe(v uint64) {
	if b == nil {
		return
	}
	b.count++
	b.sum += v
	b.buckets[bits.Len64(v)]++
	if b.min == 0 || v+1 < b.min {
		b.min = v + 1
	}
	if v > b.max {
		b.max = v
	}
}

// Flush folds the batch into the shared histogram and clears it for
// reuse.
func (b *HistogramBatch) Flush() {
	if b == nil || b.count == 0 {
		return
	}
	h := b.h
	h.count.Add(b.count)
	h.sum.Add(b.sum)
	for i := range b.buckets {
		if n := b.buckets[i]; n > 0 {
			h.buckets[i].Add(n)
			b.buckets[i] = 0
		}
	}
	for {
		m := h.min.Load()
		if m != 0 && b.min >= m || h.min.CompareAndSwap(m, b.min) {
			break
		}
	}
	for {
		m := h.max.Load()
		if b.max <= m || h.max.CompareAndSwap(m, b.max) {
			break
		}
	}
	b.count, b.sum, b.min, b.max = 0, 0, 0, 0
}

// quantile estimates the q-quantile from the bucket counts: it walks to
// the bucket containing the rank and reports that bucket's upper bound,
// clamped to the observed min/max so single-bucket histograms stay
// exact-ish.
func quantile(counts []uint64, total uint64, q float64, lo, hi uint64) uint64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if cum > rank {
			u := bucketUpper(i)
			if u < lo {
				u = lo
			}
			if hi > 0 && u > hi {
				u = hi
			}
			return u
		}
	}
	return hi
}
