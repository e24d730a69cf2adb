package metrics

import (
	"math"
	"testing"
	"time"
)

func snapOf(bounds []float64, obs ...float64) HistogramSnapshot {
	h := newHistogram(bounds)
	for _, v := range obs {
		h.Observe(v)
	}
	return h.snapshot()
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	tests := []struct {
		v    float64
		want int // bucket index
	}{
		{0, 0},
		{0.0005, 0},
		{0.001, 0}, // exactly on a bound: inclusive upper
		{0.0011, 1},
		{0.01, 1},
		{0.05, 2},
		{0.1, 2},
		{0.2, 3}, // overflow
		{1e9, 3},
	}
	for _, tt := range tests {
		before := h.counts[tt.want].Load()
		h.Observe(tt.v)
		if got := h.counts[tt.want].Load(); got != before+1 {
			t.Errorf("Observe(%g): bucket %d not incremented", tt.v, tt.want)
		}
	}
	if h.Count() != uint64(len(tests)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(tests))
	}
}

// TestQuantileBoundaries pins the interpolation math at bucket
// boundaries with hand-computed expectations.
func TestQuantileBoundaries(t *testing.T) {
	bounds := []float64{0.001, 0.002, 0.004}
	tests := []struct {
		name string
		obs  []float64
		q    float64
		want float64
	}{
		// Two observations in (0, 1ms], two in (1ms, 2ms]. p50 rank =
		// 2 falls exactly at the first bucket's upper bound.
		{"exact boundary", []float64{0.0005, 0.001, 0.0015, 0.002}, 0.50, 0.001},
		// p25 rank = 1: halfway through the first bucket (0 → 1ms).
		{"first bucket interpolates from zero", []float64{0.0005, 0.001, 0.0015, 0.002}, 0.25, 0.0005},
		// p99 rank = 3.96: (3.96-2)/2 of the way through (1ms, 2ms].
		{"interpolation inside bucket", []float64{0.0005, 0.001, 0.0015, 0.002}, 0.99, 0.001 + 0.001*1.96/2},
		// p100 consumes the last occupied bucket entirely.
		{"q=1 reaches bucket top", []float64{0.0005, 0.001, 0.0015, 0.002}, 1.0, 0.002},
		// All mass in one bucket: uniform interpolation across it.
		{"single bucket median", []float64{0.003, 0.003, 0.003, 0.003}, 0.50, 0.002 + 0.002*0.5},
		// Overflow bucket cannot be interpolated: report last bound.
		{"overflow reports last bound", []float64{5, 6, 7}, 0.99, 0.004},
		// Empty histogram.
		{"empty", nil, 0.5, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := snapOf(bounds, tt.obs...)
			if got := s.Quantile(tt.q); !approx(got, tt.want) {
				t.Errorf("Quantile(%g) = %g, want %g (buckets %+v)", tt.q, got, tt.want, s.Buckets)
			}
		})
	}
}

func TestQuantileSkipsEmptyBuckets(t *testing.T) {
	// Mass only in the third bucket (2ms, 4ms]; every quantile must
	// land inside it.
	s := snapOf([]float64{0.001, 0.002, 0.004}, 0.003, 0.003, 0.004, 0.004)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := s.Quantile(q)
		if got <= 0.002 || got > 0.004 {
			t.Errorf("Quantile(%g) = %g, want within (0.002, 0.004]", q, got)
		}
	}
}

func TestSnapshotQuantilesPrecomputed(t *testing.T) {
	s := snapOf([]float64{0.001, 0.002, 0.004}, 0.0005, 0.001, 0.0015, 0.002)
	if !approx(s.P50, s.Quantile(0.50)) || !approx(s.P95, s.Quantile(0.95)) || !approx(s.P99, s.Quantile(0.99)) {
		t.Errorf("precomputed quantiles diverge from Quantile(): %+v", s)
	}
	if s.Count != 4 {
		t.Errorf("Count = %d", s.Count)
	}
	// The sum is stored in nanosecond fixed point; allow a few ns of
	// truncation error.
	if math.Abs(s.SumSeconds-0.005) > 1e-8 {
		t.Errorf("SumSeconds = %g, want 0.005", s.SumSeconds)
	}
}

func TestObserveDurationAndSince(t *testing.T) {
	h := newHistogram(DefaultLatencyBuckets)
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatal("ObserveDuration did not record")
	}
	start := h.Start()
	if start.IsZero() {
		t.Fatal("Start() on live histogram returned zero time")
	}
	h.ObserveSince(start)
	if h.Count() != 2 {
		t.Error("ObserveSince did not record")
	}
	h.ObserveSince(time.Time{}) // zero start: no-op
	if h.Count() != 2 {
		t.Error("ObserveSince recorded a zero start")
	}
}

func TestDefaultBucketsSorted(t *testing.T) {
	for i := 1; i < len(DefaultLatencyBuckets); i++ {
		if DefaultLatencyBuckets[i] <= DefaultLatencyBuckets[i-1] {
			t.Fatalf("DefaultLatencyBuckets not strictly increasing at %d", i)
		}
	}
}
