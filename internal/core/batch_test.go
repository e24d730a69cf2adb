package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/rtc-compliance/rtcc/internal/filterpipe"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/report"
)

// BatchAnalyzeCapture is the original whole-capture pipeline: buffer
// everything, then filter, inspect, and check. It is the reference
// implementation the streaming Analyzer is differentially tested
// against, and the baseline of the streaming memory test.
func BatchAnalyzeCapture(in CaptureInput, opts Options) (*CaptureAnalysis, error) {
	if in.CallEnd.Before(in.CallStart) {
		return nil, errors.New("core: call window end precedes start")
	}
	table := flow.NewTable()
	decodeErrs := 0
	var pkt layers.Packet // decode scratch, reused across frames
	for _, p := range in.Packets {
		err := layers.DecodeInto(&pkt, in.LinkType, p.Data)
		if err != nil {
			// Tolerate unparseable frames (the paper's captures contain
			// them too); count and continue.
			decodeErrs++
			continue
		}
		table.Add(p.Timestamp, &pkt)
	}
	if table.Len() == 0 && len(in.Packets) > 0 {
		return nil, fmt.Errorf("%w (%d frames, %d decode errors)", ErrNoDecodable, len(in.Packets), decodeErrs)
	}

	fres := filterpipe.Run(table, filterpipe.Config{
		CallStart: in.CallStart,
		CallEnd:   in.CallEnd,
		Metrics:   opts.Metrics,
	})

	ca := &CaptureAnalysis{
		Label:        in.Label,
		Filter:       fres,
		Stats:        report.NewAppStats(in.Label),
		RTPSSRCs:     make(map[uint32]bool),
		DecodeErrors: decodeErrs,
	}
	for _, s := range table.Streams() {
		ca.Bytes += s.Bytes
	}

	// The compliance analysis covers UDP RTC streams only (§3.3: TCP
	// volume is negligible and carries signaling, not media). Every
	// piece of per-stream state — the DPI stream context, the
	// compliance session, the findings evidence — is independent
	// between streams; the per-stream partial results are folded in
	// stream order.
	var partials []*streamPartial
	for _, s := range fres.RTC {
		if s.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		partials = append(partials, analyzeStream(s, opts))
	}
	foldPartials(ca, partials)
	// Results carry verdicts, not packets: drop every stream's records,
	// as the Analyzer does, so whole results compare with DeepEqual.
	for _, s := range table.Streams() {
		s.Packets = nil
	}
	recordCapture(opts.Metrics, ca, len(in.Packets))
	return ca, nil
}

// analyzeStream runs DPI extraction and compliance checking over one
// UDP RTC stream with fresh per-stream state: its own inspector,
// session, and findings evidence.
func analyzeStream(s *flow.Stream, opts Options) *streamPartial {
	p := newStreamPartial(nil, s.Key.String(), opts)
	p.consume(s.Packets, opts.engine().NewStreamInspector().Finalize(s.Packets))
	return p
}

// BatchAnalyzePCAP is the original read-everything-then-analyze path,
// the baseline of TestStreamingMemoryRatio.
func BatchAnalyzePCAP(r io.Reader, label string, callStart, callEnd time.Time, opts Options) (*CaptureAnalysis, error) {
	cr, err := pcap.NewCaptureReader(r)
	if err != nil {
		return nil, err
	}
	pkts, linkType, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	in := CaptureInput{
		Label:     label,
		LinkType:  linkType,
		Packets:   pkts,
		CallStart: callStart,
		CallEnd:   callEnd,
	}
	// Default the window to the capture span when not annotated.
	if callStart.IsZero() && len(pkts) > 0 {
		in.CallStart = pkts[0].Timestamp
		in.CallEnd = pkts[len(pkts)-1].Timestamp
	}
	return BatchAnalyzeCapture(in, opts)
}
