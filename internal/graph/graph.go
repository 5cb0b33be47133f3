// Package graph is a small typed intermediate representation for the
// node's per-chunk DSP pipelines. A pipeline is assembled through a
// Builder — one op per processing stage the node runs (lead gating,
// morphological conditioning, lead combination, à-trous decomposition,
// delineation, classification, integer CS encoding onto the radio's
// 12-bit grid, packetisation) — validated structurally and shape-wise
// at build time, and compiled into an immutable Plan:
//
//   - the morphological-filter tail feeding the RMS lead combiner is
//     fused into a single pass, which is bit-identical to the unfused
//     filter-then-combine pair;
//   - every inter-stage and intra-stage work buffer is planned into one
//     scratch arena with liveness-based offset reuse, allocated once
//     when an executor is created — steady-state chunk processing does
//     not allocate;
//   - stage-boundary telemetry laps are preplanned: each compiled stage
//     carries the lap tags to record, so the executor takes exactly one
//     clock reading per tagged boundary.
//
// A Plan is shared: it holds no mutable state and any number of Execs
// (one per stream) can run it concurrently. The builder/op/compile
// split follows the same construction idiom as MLIR-style IR builders.
package graph

import (
	"errors"
	"fmt"

	"wbsn/internal/delineation"
	"wbsn/internal/telemetry"
)

// Errors returned by the builder and executor.
var (
	// ErrBuild reports an invalid graph construction: bad op parameters,
	// shape mismatches between producer and consumer, or malformed
	// structure (no input, dangling values, multiple consumers).
	ErrBuild = errors.New("graph: invalid graph")
	// ErrExec reports invalid executor input (wrong lead count, ragged
	// leads, chunk longer than the planned capacity).
	ErrExec = errors.New("graph: invalid executor input")
)

// ShapeClass says what kind of value flows along an edge of the graph.
type ShapeClass int

// Shape classes.
const (
	// ShapeLeads is a lead-major multi-lead sample block [leads][n].
	ShapeLeads ShapeClass = iota
	// ShapeSeries is a single combined signal [n].
	ShapeSeries
	// ShapeCoeffs is an à-trous detail stack [scales][n].
	ShapeCoeffs
	// ShapeBeats is a slice of delineated beats.
	ShapeBeats
	// ShapeMeasurements is a per-lead CS measurement stack [leads][m].
	ShapeMeasurements
	// ShapePacket is a packetised payload (byte count plus optional
	// measurements) — a terminal shape.
	ShapePacket
)

// String names the shape class for error messages.
func (c ShapeClass) String() string {
	switch c {
	case ShapeLeads:
		return "leads"
	case ShapeSeries:
		return "series"
	case ShapeCoeffs:
		return "coeffs"
	case ShapeBeats:
		return "beats"
	case ShapeMeasurements:
		return "measurements"
	case ShapePacket:
		return "packet"
	default:
		return "unknown"
	}
}

// Shape is the static type of a graph value.
type Shape struct {
	Class ShapeClass
	// Leads is the lead count for ShapeLeads/ShapeMeasurements (the
	// maximum: signal-quality gating may drop leads at run time).
	Leads int
	// Scales is the scale count for ShapeCoeffs.
	Scales int
}

// Lapper receives one stage-boundary telemetry lap per tagged compiled
// stage. Implementations chain laps off a shared cursor so each
// boundary costs a single clock reading (DESIGN §10).
type Lapper interface {
	Lap(stage telemetry.Stage)
}

// Result is the output of executing a compiled plan over one chunk.
type Result struct {
	// Combined is the post-combination series of an analysis plan. It
	// is arena-owned: valid until the executor's next Run.
	Combined []float64
	// Beats holds the delineated beats of an analysis plan (chunk-local
	// sample indices). Freshly allocated per Run; safe to retain.
	Beats []delineation.BeatFiducials
	// HasPacket reports whether the plan produced a radio payload this
	// chunk (a CS plan skips partial trailing windows).
	HasPacket bool
	// PacketBytes is the payload size when HasPacket is set.
	PacketBytes int
	// Measurements holds the per-lead CS measurement vectors of a CS
	// packet (nil for raw packets), already on the radio's 12-bit grid.
	// Freshly allocated per Run; safe to retain (they travel inside
	// emitted events).
	Measurements [][]float64
}

func buildErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBuild, fmt.Sprintf(format, args...))
}
