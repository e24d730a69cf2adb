package ingest

import (
	"io"
	"time"

	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// AnalyzePCAP analyzes a capture stream through the sharded tier — the
// sharded sibling of core.AnalyzePCAP, built on the same StreamCapture
// reading loop with a ShardedAnalyzer as the sink. The analyzer
// configuration matches core.AnalyzePCAP exactly, which is what makes
// the two paths byte-identical on any capture.
func AnalyzePCAP(r io.Reader, label string, callStart, callEnd time.Time, opts core.Options, cfg Config) (*core.CaptureAnalysis, error) {
	acfg := core.AnalyzerConfig{Label: label, CallStart: callStart, CallEnd: callEnd}
	return core.StreamCapture(r, func(lt pcap.LinkType) (core.FrameSink, error) {
		acfg.LinkType = lt
		return New(acfg, opts, cfg)
	})
}
