// Package telemetry is the repo's zero-dependency observability core:
// atomic counters and gauges, fixed-bucket power-of-two histograms with
// lock-free recording, and a registry that renders JSON and expvar
// snapshots over HTTP. Per-window span trees live in the trace
// subpackage and are served at /traces.
//
// The design constraint is the same one the node hot path already obeys
// (DESIGN.md §9): recording a metric must never touch the allocator and
// must never take a lock on the write path that a reader can hold for
// long. Writers use atomic adds (histogram record is a count add plus a
// bucket add plus two CAS watermark updates); readers pay the full cost
// of snapshotting. Every metric type is safe for concurrent use, and
// every write method is a no-op on a nil receiver so instrumented code
// can run with telemetry detached at zero branch-misprediction cost.
//
// The stage taxonomy mirrors the paper's pipeline: acquire → filter →
// delineate → classify → CS encode → radio link → gateway decode. Each
// layer records its stage durations into a shared StageSet so the
// /metrics snapshot shows the whole chain's latency profile at once —
// the runtime self-inspection Scrugli et al. (arXiv:2106.06498) make
// the basis for adaptive mode control.
package telemetry

// Stage identifies one pipeline stage for the stage latency histograms.
type Stage uint8

// Pipeline stages, in signal-flow order.
const (
	// StageAcquire is the node's sample buffering and chunk assembly.
	StageAcquire Stage = iota
	// StageFilter is the morphological conditioning pass.
	StageFilter
	// StageDelineate is wavelet delineation over the combined lead.
	StageDelineate
	// StageClassify is per-beat RP projection plus prototype matching.
	StageClassify
	// StageCS is the compressed-sensing encode (plus payload quantise).
	StageCS
	// StageLink is one window's ARQ delivery over the lossy channel.
	StageLink
	// StageGatewayDecode is one window's CS reconstruction at the
	// gateway.
	StageGatewayDecode

	// NumStages is the stage count (for sizing per-stage state).
	NumStages = int(StageGatewayDecode) + 1
)

// String returns the stage's snapshot/metric name.
func (s Stage) String() string {
	switch s {
	case StageAcquire:
		return "acquire"
	case StageFilter:
		return "filter"
	case StageDelineate:
		return "delineate"
	case StageClassify:
		return "classify"
	case StageCS:
		return "cs"
	case StageLink:
		return "link"
	case StageGatewayDecode:
		return "gateway_decode"
	default:
		return "unknown"
	}
}
