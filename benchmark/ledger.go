package main

import (
	"fmt"
	"time"

	"wbsn/internal/telemetry/trace"
)

// layer is one row of the traced run's time ledger. Each row is the
// self time of the calls into one layer's public functions, measured by
// spans in the benchmark's own code around those calls (the link row
// excludes its sink). The gateway's queue-wait, decode and deliver rows
// are the spans the program records per window under its trace ID; the
// remainder of the call that contains them is its own row.
type layer int

const (
	layerECG layer = iota
	layerCore
	layerLink
	layerGateway
	layerQueue
	layerDecode
	layerDeliver
	layerDelineate
	layerEval
	layerNetGW
	numLayers
)

var layerNames = [numLayers]string{
	"ecg.Generate",
	"core.Stream.PushBlock/Flush",
	"link.Link.SendTraced/Close (self)",
	// The sink's time minus its windows' spans. Receiver.decodeOne
	// submits to the engine and waits, so this also holds the slot
	// goroutine's wait to be scheduled again after its decode.
	"gateway.Receiver (self + wait after decode)",
	"gateway engine queue wait",
	"cs decode",
	"gateway.Receiver deliver",
	"gateway.Receiver.Delineate",
	"delineation.Evaluate",
	"netgw.SendRecord (round trip minus server spans)",
}

// serverSpans are the spans the program records for each decoded
// window, and the ledger row each one goes to.
var serverSpans = [...]struct {
	kind trace.Kind
	row  layer
}{{trace.KindQueueWait, layerQueue}, {trace.KindDecode, layerDecode}, {trace.KindDeliver, layerDeliver}}

// ledgerSlack is the largest share of traced wall time the layer spans
// may leave unattributed (benchmark glue between calls) before the
// ledger counts as open and the traced run fails.
const ledgerSlack = 0.05

// ledger accumulates one goroutine's spans; ledgers of all goroutines
// are summed at the end. wall is the goroutine's traced busy time.
type ledger struct {
	ns   [numLayers]int64
	wall int64
	// Work counters from the same spans.
	windows, lost, attempts, packets, txBytes int
	queueWaitMs                               []float64
	// delivered counts the windows the gateway decoded; spanned those
	// whose queue-wait, decode and deliver spans were all found. The
	// remainder rows hide a missing span, so the two must match.
	delivered, spanned int
}

// span adds the time since t0 to row k; a zero t0 marks an untraced
// pass and adds nothing.
func (l *ledger) span(k layer, t0 time.Time) {
	if !t0.IsZero() {
		l.ns[k] += int64(time.Since(t0))
	}
}

// takeWindow moves one window's server spans out of the remainder row
// from into their own rows. It returns the window and false, moving
// nothing, unless all of them are in the ring; callers count the
// windows they expect in delivered.
func (l *ledger) takeWindow(ring *trace.Ring, id trace.ID, from layer) (trace.Window, bool) {
	w, ok := ring.Window(id)
	for _, s := range serverSpans {
		ok = ok && w.Has(s.kind)
	}
	if !ok {
		return w, false
	}
	for _, s := range serverSpans {
		l.ns[s.row] += w.Spans[s.kind].DurNs
		l.ns[from] -= w.Spans[s.kind].DurNs
	}
	l.queueWaitMs = append(l.queueWaitMs, float64(w.Spans[trace.KindQueueWait].DurNs)/1e6)
	l.spanned++
	return w, true
}

func (l *ledger) merge(o *ledger) {
	for k := range l.ns {
		l.ns[k] += o.ns[k]
	}
	l.wall += o.wall
	l.windows += o.windows
	l.lost += o.lost
	l.attempts += o.attempts
	l.packets += o.packets
	l.txBytes += o.txBytes
	l.queueWaitMs = append(l.queueWaitMs, o.queueWaitMs...)
	l.delivered += o.delivered
	l.spanned += o.spanned
}

func (l *ledger) attributed() int64 {
	var s int64
	for _, v := range l.ns {
		s += v
	}
	return s
}

// close prints the ledger and reports its closure: attributed self
// time as a percentage of traced wall time. A ledger outside the slack,
// or a decoded window whose spans are missing, fails the traced run.
func (l *ledger) close(out *outcome) float64 {
	fmt.Printf("window spans: found for %d of %d decoded windows\n", l.spanned, l.delivered)
	out.attempted++
	if l.spanned != l.delivered {
		out.fail("spans missing for %d of %d decoded windows", l.delivered-l.spanned, l.delivered)
	}
	wall := float64(l.wall)
	fmt.Printf("ledger: %d goroutine-ms traced\n", l.wall/1e6)
	for k := layer(0); k < numLayers; k++ {
		if l.ns[k] == 0 {
			continue
		}
		fmt.Printf("  %-50s %10.1f ms %6.2f%%\n", layerNames[k], float64(l.ns[k])/1e6, 100*float64(l.ns[k])/wall)
	}
	glue := l.wall - l.attributed()
	fmt.Printf("  %-50s %10.1f ms %6.2f%%\n", "unattributed (benchmark glue)", float64(glue)/1e6, 100*float64(glue)/wall)
	closure := 100 * float64(l.attributed()) / wall
	fmt.Printf("ledger closure: layers sum to %.2f%% of traced wall time (slack %.0f%%)\n", closure, 100*ledgerSlack)
	out.attempted++
	if closure < 100*(1-ledgerSlack) || closure > 100*(1+ledgerSlack) {
		out.fail("ledger does not close: %.2f%% attributed", closure)
	}
	return closure
}

// ratio is a/b, or 0 when the layer saw no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
