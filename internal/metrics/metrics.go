// Package metrics is a dependency-free, concurrency-safe metrics
// registry for the analysis pipeline: atomic counters, gauges, and
// fixed-bucket latency histograms with quantile estimation, addressed
// by a metric name plus optional key=value labels (app, network,
// pipeline stage, drop rule, ...).
//
// The package is built around two properties the pipeline needs:
//
//   - A nil registry costs nothing. Every lookup on a nil *Registry
//     returns a nil instrument, and every operation on a nil
//     instrument is a no-op — a single predictable branch on the hot
//     path. Callers thread an optional *Registry through without
//     guarding call sites.
//
//   - Recording is order-independent. Counters and histogram bucket
//     counts are atomic sums, so a parallel analysis run records
//     exactly the same totals as a serial one regardless of goroutine
//     scheduling; instrumentation cannot perturb the engine's
//     deterministic serial-vs-parallel equality.
//
// Snapshot renders the registry as JSON (served at /metrics) and
// publishes to expvar (served at /debug/vars); see http.go for the
// HTTP endpoint that also mounts net/http/pprof.
package metrics

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Name renders the canonical metric identity: the base name followed
// by the labels sorted by key, as base{k1=v1,k2=v2}. Snapshot maps are
// keyed by this form, so tests and scrapers can reconstruct it.
func Name(base string, labels ...Label) string {
	if len(labels) == 0 {
		return base
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter ignores every operation.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil *Gauge ignores every operation.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds every instrument created through it. A nil *Registry
// is valid and inert: lookups return nil instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the counter with the given
// name and labels. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge with the given name
// and labels. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram with the
// given name and labels. buckets lists the upper bounds; nil selects
// DefaultLatencyBuckets. The bounds of an existing histogram are kept —
// the first creation wins. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[key]
	if !ok {
		h = newHistogram(buckets)
		r.histograms[key] = h
	}
	return h
}
