package telemetry

import "sync"

// The mode metric family below is not recorded by any program
// (examples/faulty drives core.ModeController without telemetry). It
// stays beside its tests.

// ModeEvent is one recorded degradation-ladder transition.
type ModeEvent struct {
	At       int     `json:"at"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	FromName string  `json:"from_name"`
	ToName   string  `json:"to_name"`
	Quality  float64 `json:"quality"`
}

// modeEventRing bounds the kept transition history.
const modeEventRing = 256

// ModeMetrics records degradation-ladder transitions: one counter per
// ladder edge, the current-mode gauge and a bounded event history. Mode
// names are supplied by the caller.
type ModeMetrics struct {
	names []string
	// Transitions counts every mode change; Current is the mode index
	// after the latest change.
	Transitions *Counter
	Current     *Gauge
	edges       [][]*Counter

	mu     sync.Mutex
	events []ModeEvent
	next   int
	filled bool
}

// NewModeMetrics registers the mode metric family (mode.*): edge
// counters are pre-registered for every adjacent mode pair in both
// directions, so /metrics exposes the full ladder before any
// transition fires.
func NewModeMetrics(reg *Registry, names []string) *ModeMetrics {
	m := &ModeMetrics{
		names:       names,
		Transitions: reg.Counter("mode.transitions"),
		Current:     reg.Gauge("mode.current"),
		edges:       make([][]*Counter, len(names)),
	}
	for i := range m.edges {
		m.edges[i] = make([]*Counter, len(names))
	}
	for i := 0; i+1 < len(names); i++ {
		m.edges[i][i+1] = reg.Counter("mode.edge." + names[i] + "->" + names[i+1])
		m.edges[i+1][i] = reg.Counter("mode.edge." + names[i+1] + "->" + names[i])
	}
	return m
}

// Edge returns the counter of the from→to ladder edge (nil when out of
// range or non-adjacent).
func (m *ModeMetrics) Edge(from, to int) *Counter {
	if m == nil || from < 0 || to < 0 || from >= len(m.edges) || to >= len(m.edges) {
		return nil
	}
	return m.edges[from][to]
}

// RecordTransition logs one ladder transition.
func (m *ModeMetrics) RecordTransition(at, from, to int, quality float64) {
	if m == nil {
		return
	}
	m.Transitions.Inc()
	m.Current.Set(int64(to))
	m.Edge(from, to).Inc()
	ev := ModeEvent{At: at, From: from, To: to, Quality: quality}
	if from >= 0 && from < len(m.names) {
		ev.FromName = m.names[from]
	}
	if to >= 0 && to < len(m.names) {
		ev.ToName = m.names[to]
	}
	m.mu.Lock()
	if len(m.events) < modeEventRing {
		m.events = append(m.events, ev)
	} else {
		m.events[m.next] = ev
		m.filled = true
	}
	m.next = (m.next + 1) % modeEventRing
	m.mu.Unlock()
}

// Events returns the recorded transitions, oldest first (bounded by the
// ring size).
func (m *ModeMetrics) Events() []ModeEvent {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.filled {
		out := make([]ModeEvent, len(m.events))
		copy(out, m.events)
		return out
	}
	out := make([]ModeEvent, 0, modeEventRing)
	for i := 0; i < modeEventRing; i++ {
		out = append(out, m.events[(m.next+i)%modeEventRing])
	}
	return out
}
