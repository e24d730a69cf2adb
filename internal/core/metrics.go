package core

import (
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// captureMetrics holds the resolved instrument handles for one
// AnalyzeCapture run, labelled by application. The zero value (from a
// nil registry) is inert: every handle is nil and every operation a
// no-op, so the hot path pays only a nil-receiver branch.
type captureMetrics struct {
	frames        *metrics.Counter
	decodeErrors  *metrics.Counter
	packets       *metrics.Counter
	captures      *metrics.Counter
	rtcStreams    *metrics.Counter
	streamSeconds *metrics.Histogram
	foldSeconds   *metrics.Histogram
}

func newCaptureMetrics(r *metrics.Registry, app string) captureMetrics {
	if r == nil {
		return captureMetrics{}
	}
	l := metrics.L("app", app)
	return captureMetrics{
		frames:        r.Counter("core_frames_total", l),
		decodeErrors:  r.Counter("core_decode_errors_total", l),
		packets:       r.Counter("core_packets_decoded_total", l),
		captures:      r.Counter("core_captures_total", l),
		rtcStreams:    r.Counter("core_rtc_udp_streams_total", l),
		streamSeconds: r.Histogram("core_stream_analyze_seconds", nil, l),
		foldSeconds:   r.Histogram("core_fold_seconds", nil, l),
	}
}

// analyzerMetrics instruments the streaming Analyzer, labelled by
// application: the live-stream gauge (with its high-water mark), the
// eviction and reconciliation counters, and the per-feed latency
// histogram. Zero value is inert.
type analyzerMetrics struct {
	active       *metrics.Gauge
	activePeak   *metrics.Gauge
	evicted      *metrics.Counter
	reclassified *metrics.Counter
	feedBatches  *metrics.Counter
	feedSeconds  *metrics.Histogram
}

func newAnalyzerMetrics(r *metrics.Registry, app string) analyzerMetrics {
	if r == nil {
		return analyzerMetrics{}
	}
	l := metrics.L("app", app)
	return analyzerMetrics{
		active:       r.Gauge("core_active_streams", l),
		activePeak:   r.Gauge("core_active_streams_peak", l),
		evicted:      r.Counter("core_evicted_streams_total", l),
		reclassified: r.Counter("core_reclassified_streams_total", l),
		feedBatches:  r.Counter("core_feed_batches_total", l),
		feedSeconds:  r.Histogram("core_feed_seconds", nil, l),
	}
}

// matrixMetrics instruments RunMatrix: per-capture latency and counts
// labelled by app and network, plus the configured worker-pool size.
// Zero value is inert.
type matrixMetrics struct {
	registry *metrics.Registry
	workers  *metrics.Gauge
}

func newMatrixMetrics(r *metrics.Registry) matrixMetrics {
	if r == nil {
		return matrixMetrics{}
	}
	return matrixMetrics{registry: r, workers: r.Gauge("matrix_workers")}
}

// capture returns the per-cell handles for one matrix configuration.
// Resolution happens once per capture (not per packet), so the map
// lookup cost is negligible.
func (m matrixMetrics) capture(cfg trace.CaptureConfig) (*metrics.Counter, *metrics.Histogram) {
	if m.registry == nil {
		return nil, nil
	}
	labels := []metrics.Label{
		metrics.L("app", string(cfg.App)),
		metrics.L("network", cfg.Network.String()),
	}
	return m.registry.Counter("matrix_captures_total", labels...),
		m.registry.Histogram("matrix_capture_seconds", nil, labels...)
}
