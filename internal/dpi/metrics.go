package dpi

import (
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// engineMetrics holds the resolved instruments for one stream
// inspector. The zero value (nil registry) is inert: every instrument
// is a nil no-op, so the per-datagram cost of disabled metrics is a
// handful of nil-receiver branches.
type engineMetrics struct {
	// classes is indexed by Class.
	classes [3]*metrics.Counter
	// messages is indexed by Protocol (unregistered IDs stay nil).
	messages [proto.MaxIDs]*metrics.Counter
	attempts *metrics.Counter
	latency  *metrics.Histogram
}

func (e *Engine) metricsHandles() engineMetrics {
	r := e.Metrics
	if r == nil {
		return engineMetrics{}
	}
	var m engineMetrics
	m.classes[ClassFullyProprietary] = r.Counter("dpi_datagrams_total", metrics.L("class", "fully_proprietary"))
	m.classes[ClassStandard] = r.Counter("dpi_datagrams_total", metrics.L("class", "standard"))
	m.classes[ClassProprietaryHeader] = r.Counter("dpi_datagrams_total", metrics.L("class", "proprietary_header"))
	for _, meta := range e.registry().Metas() {
		m.messages[meta.ID] = r.Counter("dpi_messages_total", metrics.L("proto", meta.Slug))
	}
	m.attempts = r.Counter("dpi_offset_shift_attempts_total")
	m.latency = r.Histogram("dpi_inspect_seconds", nil)
	return m
}
