package core

import (
	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// analyzerMetrics instruments the streaming Analyzer, labelled by
// application: the live-stream gauge (with its high-water mark), the
// eviction and reconciliation counters, and the stage latencies. Zero
// value is inert.
type analyzerMetrics struct {
	active       *metrics.Gauge
	activePeak   *metrics.Gauge
	evicted      *metrics.Counter
	reclassified *metrics.Counter

	// The stage_seconds{app,stage} family, one histogram per stage,
	// named after the bench ledger's layers (BENCHMARK.json per_layer)
	// so /metrics and the ledger agree.
	feed     *metrics.Histogram // core.feed: one FeedBatch call, with pass 1 of the DPI batches it fills
	finalize *metrics.Histogram // dpi.finalize: one stream chunk's StreamInspector.Finalize (pass 1's tail, pass 2)
	check    *metrics.Histogram // compliance.check: one stream chunk's streamPartial.consume
	filter   *metrics.Histogram // filterpipe.run: the two-stage filter at Close
	close    *metrics.Histogram // core.close: one whole finalize (Close, or the shard merge's)
}

func newAnalyzerMetrics(r *metrics.Registry, app string) analyzerMetrics {
	if r == nil {
		return analyzerMetrics{}
	}
	l := metrics.L("app", app)
	stage := func(name string) *metrics.Histogram {
		return r.Histogram("stage_seconds", l, metrics.L("stage", name))
	}
	return analyzerMetrics{
		active:       r.Gauge("core_active_streams", l),
		activePeak:   r.Gauge("core_active_streams_peak", l),
		evicted:      r.Counter("core_evicted_streams_total", l),
		reclassified: r.Counter("core_reclassified_streams_total", l),
		feed:         stage("core.feed"),
		finalize:     stage("dpi.finalize"),
		check:        stage("compliance.check"),
		filter:       stage("filterpipe.run"),
		close:        stage("core.close"),
	}
}

// classSlugs and critSlugs are the label values of the datagram-class
// and failed-criterion counters, indexed by dpi.Class and Criterion.
var (
	classSlugs = [...]string{
		dpi.ClassFullyProprietary:  "fully_proprietary",
		dpi.ClassStandard:          "standard",
		dpi.ClassProprietaryHeader: "proprietary_header",
	}
	critSlugs = [...]string{
		compliance.CritMessageType: "message_type",
		compliance.CritHeader:      "header",
		compliance.CritAttrType:    "attr_type",
		compliance.CritAttrValue:   "attr_value",
		compliance.CritSemantics:   "semantics",
	}
)

// recordCapture writes one finished analysis into the registry: frames
// in, decode errors, final RTC UDP streams, and, from ca.Stats (the
// tallies the report renders), the datagram classes and the verdicts.
// It runs once per analysis, at the end of finalize (and of the
// test-side batch reference), so each counter equals the result by
// construction; every class and criterion is registered, even at zero.
func recordCapture(r *metrics.Registry, ca *CaptureAnalysis, frames int) {
	if r == nil {
		return
	}
	l := metrics.L("app", ca.Label)
	r.Counter("core_frames_total", l).Add(uint64(frames))
	r.Counter("core_decode_errors_total", l).Add(uint64(ca.DecodeErrors))
	r.Counter("core_rtc_udp_streams_total", l).Add(uint64(ca.Filter.RTCUDP.Streams))
	for class, slug := range classSlugs {
		n := ca.Stats.Datagrams[dpi.Class(class)]
		r.Counter("dpi_datagrams_total", metrics.L("class", slug)).Add(uint64(n))
	}
	pass := 0
	for _, ps := range ca.Stats.ByProtocol {
		pass += ps.Compliant
	}
	r.Counter("compliance_pass_total").Add(uint64(pass))
	for crit := compliance.CritMessageType; crit <= compliance.CritSemantics; crit++ {
		n := ca.Stats.Violations[crit]
		r.Counter("compliance_fail_total", metrics.L("criterion", critSlugs[crit])).Add(uint64(n))
	}
}

// matrixMetrics instruments RunMatrix: per-capture latency labelled by
// app and network, plus the configured worker-pool size. Zero value is
// inert.
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

// latency returns the per-cell latency histogram for one matrix
// configuration. Resolution happens once per capture (not per packet),
// so the map lookup cost is negligible.
func (m matrixMetrics) latency(cfg trace.CaptureConfig) *metrics.Histogram {
	if m.registry == nil {
		return nil
	}
	return m.registry.Histogram("matrix_capture_seconds",
		metrics.L("app", string(cfg.App)),
		metrics.L("network", cfg.Network.String()))
}
