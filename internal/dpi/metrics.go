package dpi

import (
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// engineMetrics holds the resolved instruments for one stream
// inspector: the extraction counts only Algorithm 1 sees, recorded at
// each Finalize from the results the chunk kept. Datagram
// classes are tallied in the analysis result and recorded from there
// (internal/core). The zero value (nil registry) is inert: every
// instrument is a nil no-op.
type engineMetrics struct {
	// messages is indexed by Protocol (unregistered IDs stay nil).
	messages [proto.MaxIDs]*metrics.Counter
	attempts *metrics.Counter
	// discarded counts the records whose pass-2 results a restart
	// discarded (StreamInspector.Finalize): work done twice.
	discarded *metrics.Counter
}

func (e *Engine) metricsHandles() engineMetrics {
	r := e.Metrics
	if r == nil {
		return engineMetrics{}
	}
	var m engineMetrics
	for _, meta := range e.registry().Metas() {
		m.messages[meta.ID] = r.Counter("dpi_messages_total", metrics.L("proto", meta.Slug))
	}
	m.attempts = r.Counter("dpi_offset_shift_attempts_total")
	m.discarded = r.Counter("dpi_pass2_discarded_total")
	return m
}
