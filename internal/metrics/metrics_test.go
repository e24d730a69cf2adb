package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestName(t *testing.T) {
	tests := []struct {
		base   string
		labels []Label
		want   string
	}{
		{"plain", nil, "plain"},
		{"one", []Label{L("app", "Zoom")}, "one{app=Zoom}"},
		{"sorted", []Label{L("z", "1"), L("a", "2")}, "sorted{a=2,z=1}"},
		{"multi", []Label{L("app", "Meet"), L("network", "cellular"), L("stage", "1")},
			"multi{app=Meet,network=cellular,stage=1}"},
	}
	for _, tt := range tests {
		if got := Name(tt.base, tt.labels...); got != tt.want {
			t.Errorf("Name(%q, %v) = %q, want %q", tt.base, tt.labels, got, tt.want)
		}
	}
}

func TestCounterSemantics(t *testing.T) {
	tests := []struct {
		name string
		ops  func(c *Counter)
		want uint64
	}{
		{"zero value", func(c *Counter) {}, 0},
		{"inc", func(c *Counter) { c.Inc(); c.Inc(); c.Inc() }, 3},
		{"add", func(c *Counter) { c.Add(10); c.Add(0); c.Add(7) }, 17},
		{"mixed", func(c *Counter) { c.Inc(); c.Add(41) }, 42},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var c Counter
			tt.ops(&c)
			if got := c.Value(); got != tt.want {
				t.Errorf("Value() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestGaugeSemantics(t *testing.T) {
	tests := []struct {
		name string
		ops  func(g *Gauge)
		want int64
	}{
		{"zero value", func(g *Gauge) {}, 0},
		{"set", func(g *Gauge) { g.Set(5); g.Set(-3) }, -3},
		{"add", func(g *Gauge) { g.Add(10); g.Add(-4) }, 6},
		{"set then add", func(g *Gauge) { g.Set(100); g.Add(1) }, 101},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var g Gauge
			tt.ops(&g)
			if got := g.Value(); got != tt.want {
				t.Errorf("Value() = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestNilSafety drives every operation through nil receivers and a nil
// registry: nothing may panic, lookups return nil, reads return zero.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", L("a", "b"))
	if c != nil {
		t.Fatal("nil registry returned a counter")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := r.Gauge("y")
	g.Set(1)
	g.Add(2)
	if g != nil || g.Value() != 0 {
		t.Error("nil gauge misbehaved")
	}
	h := r.Histogram("z")
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.ObserveSince(h.Start())
	if h != nil || h.Count() != 0 {
		t.Error("nil histogram misbehaved")
	}
	if !h.Start().IsZero() {
		t.Error("nil histogram Start() should return zero time")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", L("app", "Zoom"))
	b := r.Counter("hits", L("app", "Zoom"))
	if a != b {
		t.Error("same name+labels resolved to different counters")
	}
	other := r.Counter("hits", L("app", "Meet"))
	if a == other {
		t.Error("different labels resolved to the same counter")
	}
	a.Add(2)
	if b.Value() != 2 || other.Value() != 0 {
		t.Error("counter identity broken")
	}
	if r.Histogram("lat") != r.Histogram("lat") {
		t.Error("same histogram name resolved to different instances")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", L("app", "Zoom")).Add(100)
	r.Gauge("workers").Set(8)
	r.Histogram("lat_seconds").Observe(0.002)

	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["frames_total{app=Zoom}"] != 100 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["workers"] != 8 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	h := snap.Histograms["lat_seconds"]
	// 0.002 s lands in the 2 ms bucket of the default bounds.
	if h.Count != 1 || h.Buckets[10].UpperSeconds != 0.002 || h.Buckets[10].Count != 1 {
		t.Errorf("histogram snapshot = %+v", h)
	}
}

// TestCounterHammer is the -race stress test: 64 goroutines increment
// the same labelled counter concurrently; the total must be exact.
func TestCounterHammer(t *testing.T) {
	const goroutines = 64
	const perG = 1000
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve inside the goroutine: registry lookup itself must
			// be race-free too.
			c := r.Counter("hammer_total", L("app", "Zoom"), L("stage", "dpi"))
			h := r.Histogram("hammer_seconds")
			g := r.Gauge("hammer_gauge")
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(1e-4)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hammer_total", L("app", "Zoom"), L("stage", "dpi")).Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("hammer_seconds").Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("hammer_gauge").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
}
