package metrics

import (
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the fixed upper bounds (in seconds) used
// for pipeline latency histograms: a 1-2-5 progression from 1 µs to
// 10 s. Observations above the last bound land in the overflow bucket.
var DefaultLatencyBuckets = []float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	1e-1, 2e-1, 5e-1,
	1, 2, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, for latency). Bucket counts and the sum are atomic, so
// concurrent Observe calls from many goroutines are safe and totals
// are scheduling-independent. A nil *Histogram ignores every
// operation.
type Histogram struct {
	// bounds are the inclusive upper bounds, strictly increasing.
	bounds []float64
	// counts has len(bounds)+1 entries; the last is the overflow
	// bucket for observations above the final bound.
	counts []atomic.Uint64
	count  atomic.Uint64
	// sum accumulates observations in nanosecond-scale fixed point
	// (value * 1e9) so it can be atomic without a float CAS loop.
	sum atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v * 1e9))
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Start returns the current time for a later ObserveSince, or the zero
// time when the histogram is nil — so a disabled pipeline never calls
// time.Now.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed time since a Start. A zero start
// (nil histogram at Start time) records nothing.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot captures the histogram state. Bucket counts are read
// individually; a snapshot taken during concurrent writes is a
// near-consistent view (each counter is itself exact).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:      h.count.Load(),
		SumSeconds: float64(h.sum.Load()) / 1e9,
		Buckets:    make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		b := Bucket{Count: h.counts[i].Load()}
		if i < len(h.bounds) {
			b.UpperSeconds = h.bounds[i]
		} else {
			b.UpperSeconds = inf
		}
		s.Buckets[i] = b
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// inf marks the overflow bucket's bound in snapshots; JSON cannot
// carry +Inf, so a large sentinel is used instead.
const inf = 1e308

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// UpperSeconds is the bucket's inclusive upper bound.
	UpperSeconds float64 `json:"le"`
	// Count is the number of observations in this bucket (not
	// cumulative).
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	P50        float64  `json:"p50_seconds"`
	P95        float64  `json:"p95_seconds"`
	P99        float64  `json:"p99_seconds"`
	Buckets    []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket where the rank q·count falls,
// assuming observations are uniformly distributed within a bucket.
// The first bucket interpolates from zero; ranks falling in the
// overflow bucket report the last finite bound (the histogram cannot
// resolve beyond it). Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	lower := 0.0
	for i, b := range s.Buckets {
		upper := b.UpperSeconds
		if b.Count > 0 && cum+float64(b.Count) >= target {
			if i == len(s.Buckets)-1 {
				// Overflow bucket: report the last finite bound.
				return lower
			}
			return lower + (upper-lower)*(target-cum)/float64(b.Count)
		}
		cum += float64(b.Count)
		lower = upper
	}
	// Rounding left the target past the last occupied bucket; report
	// the largest finite bound reached.
	if len(s.Buckets) > 1 {
		return s.Buckets[len(s.Buckets)-2].UpperSeconds
	}
	return lower
}
