package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Registry is a named collection of metrics. Get-or-create lookups take
// a mutex and may allocate — layers resolve their metric pointers once
// at attach time, so the mutex never appears on a hot path. Snapshot
// and the JSON renderers are read-side and allocate freely.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	fcounters map[string]*FloatCounter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	// collectors run at the start of every Snapshot, before the metric
	// maps are read — the hook that lets lazily-sampled families
	// (runtime.MemStats gauges) refresh exactly when a scraper looks.
	collectors []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		fcounters: make(map[string]*FloatCounter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// FloatCounter returns the named float counter, creating it on first
// use.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fcounters[name]
	if !ok {
		f = &FloatCounter{}
		r.fcounters[name] = f
	}
	return f
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddCollector registers a hook that runs before every Snapshot.
// Collectors refresh pull-style metrics (runtime gauges) so scrapers
// always read current values; they must be cheap and must not call
// back into Snapshot.
func (r *Registry) AddCollector(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// GaugeSnapshot is the read-side view of a gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// Snapshot is one consistent-enough copy of every registered metric,
// shaped for JSON rendering (map keys sort on marshal, so output is
// stable).
type Snapshot struct {
	TakenUnixNs int64                        `json:"taken_unix_ns"`
	Counters    map[string]uint64            `json:"counters"`
	Floats      map[string]float64           `json:"floats"`
	Gauges      map[string]GaugeSnapshot     `json:"gauges"`
	Histograms  map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	collectors := r.collectors
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		TakenUnixNs: time.Now().UnixNano(),
		Counters:    make(map[string]uint64, len(r.counters)),
		Floats:      make(map[string]float64, len(r.fcounters)),
		Gauges:      make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms:  make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, f := range r.fcounters {
		s.Floats[name] = f.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), High: g.High()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
