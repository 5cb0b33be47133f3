// Package trace provides end-to-end per-window tracing for the
// node → link → network gateway → solver pipeline. Where the telemetry
// package's StageSet answers "how long does each stage take in
// aggregate", this package answers "where did *this* window's latency
// go": every CS window is minted a compact 64-bit trace ID at node
// encode time, each layer records its span under that ID, and the
// collector stitches the spans into one tree per window — node side
// (encode, ARQ delivery) and gateway side (session ingest, engine
// queue wait, FISTA decode, ordered delivery).
//
// The design constraints mirror the rest of the repo's observability
// layer (DESIGN.md §10): recording is allocation-free in steady state
// (fixed-size Window structs in preallocated per-session rings, copied
// into a preallocated recent ring and a slowest-N reservoir on
// completion), every write method is nil-safe so layers can trace
// unconditionally, and attaching a collector never changes pipeline
// output — tracing is bit-neutral by construction because the only
// wire change (the link codec's version-4 trace block) is confined to
// the TCP transport, where integrity is CRC + go-back-N, not a
// bit-error-rate channel.
package trace

import "fmt"

// ID is a compact per-window trace identifier: a 32-bit stream tag in
// the high half (patient index, record index — whatever the minting
// layer keys its streams by) and the window sequence number in the low
// half. The zero ID means "untraced" everywhere.
type ID uint64

// NewID builds a trace ID from a stream tag and a window sequence.
func NewID(hi, seq uint32) ID { return ID(uint64(hi)<<32 | uint64(seq)) }

// Hi returns the stream tag half.
func (id ID) Hi() uint32 { return uint32(id >> 32) }

// Seq returns the window-sequence half.
func (id ID) Seq() uint32 { return uint32(id) }

// String renders the ID as "hi-seq" hex (read side only).
func (id ID) String() string { return fmt.Sprintf("%08x-%08x", id.Hi(), id.Seq()) }

// Kind identifies one span slot in a window's trace. Kinds are fixed
// (one slot each in the Window struct) so recording never allocates.
type Kind uint8

// Span kinds, in pipeline order.
const (
	// KindEncode is the node-side chunk processing that produced the
	// window's CS measurements (DSP chain + encode + packetise).
	KindEncode Kind = iota
	// KindLink is the node-side ARQ delivery of the window over the
	// lossy radio channel (attempts and radio energy annotated).
	KindLink
	// KindIngest is the gateway-side session inbox wait: frame read off
	// the wire until the session actor picks it up.
	KindIngest
	// KindQueueWait is the reconstruction engine's queue wait: submit
	// until a worker picks the job up.
	KindQueueWait
	// KindDecode is the CS reconstruction (iterations and batch size
	// annotated).
	KindDecode
	// KindDeliver is the in-order append of the reconstructed window to
	// the stream's signal — recording it marks the window complete.
	KindDeliver

	// NumKinds is the kind count (sizes the per-window span array).
	NumKinds = int(KindDeliver) + 1
)

// String returns the kind's snapshot name.
func (k Kind) String() string {
	switch k {
	case KindEncode:
		return "encode"
	case KindLink:
		return "link"
	case KindIngest:
		return "ingest"
	case KindQueueWait:
		return "queue_wait"
	case KindDecode:
		return "decode"
	case KindDeliver:
		return "deliver"
	default:
		return "unknown"
	}
}

// NodeSide reports whether the kind belongs to the node half of the
// span tree (the wearable side of the wire).
func (k Kind) NodeSide() bool { return k <= KindLink }

// Span is one recorded interval. A remote span whose clock did not
// cross the wire is re-anchored to the receiving side's clock
// (StartNs is then an alignment, not a measurement — DurNs always is).
type Span struct {
	StartNs int64
	DurNs   int64
}

// Window is one window's stitched span set plus its annotations — a
// fixed-size struct so per-session rings record with zero allocations
// and completion publishes by plain copy.
type Window struct {
	ID      ID
	Session uint64
	Spans   [NumKinds]Span
	// mask has bit k set when Spans[k] was recorded (a recorded span may
	// legitimately have zero duration).
	mask uint8
	// Attempts and RadioNJ annotate the link span (ARQ transmission
	// attempts, radio energy in nanojoules); Iters and Batch annotate
	// the decode span (solver iterations, batch fill of the dispatch).
	Attempts uint16
	RadioNJ  uint64
	Iters    uint16
	Batch    uint16
}

// Has reports whether kind k's span was recorded.
func (w *Window) Has(k Kind) bool { return w.mask&(1<<uint(k)) != 0 }

// set records span k.
func (w *Window) set(k Kind, s Span) {
	w.Spans[k] = s
	w.mask |= 1 << uint(k)
}

// TotalNs sums the recorded span durations — the window's attributed
// pipeline cost, and the reservoir's slowness key.
func (w *Window) TotalNs() int64 {
	var t int64
	for k := 0; k < NumKinds; k++ {
		if w.Has(Kind(k)) {
			t += w.Spans[k].DurNs
		}
	}
	return t
}

// Complete reports whether the window reached ordered delivery.
func (w *Window) Complete() bool { return w.Has(KindDeliver) }
