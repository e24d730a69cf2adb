package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/filterpipe"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/report"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// replayBatch is how many frames one decode or flow-add span covers,
// the pipeline's own feed batch size.
const replayBatch = 64

// replayCounts tallies the work the replayed layers did, for the
// per-layer ratios.
type replayCounts struct {
	frames, rtcFrames  int
	streams, closes    int
	dgrams, classified int
	msgs               int
}

// replayLayers replays, through their public APIs, the layers that run
// inside the analyzer's feed and Close, on one unit's frames: decode,
// flow grouping, the two-stage filter, then for every final-RTC UDP
// stream the DPI sweep, five-criterion compliance, and (when qoeOn) the
// QoE estimator. Each call batch gets a span on l. A zero start defaults
// the call window to the frames' span, as the live path does. It
// returns the statistics the replayed dpi and compliance calls
// produced, which must equal the pipeline's CaptureAnalysis.Stats.
func replayLayers(l *lane, unit, label string, frames []pcap.Packet, lt pcap.LinkType, start, end time.Time, qoeOn bool, c *replayCounts) *report.AppStats {
	tbl := flow.NewTable()
	var pkts [replayBatch]layers.Packet
	var ok [replayBatch]bool
	for off := 0; off < len(frames); off += replayBatch {
		chunk := frames[off:min(off+replayBatch, len(frames))]
		sp := l.begin("layers.decode", -1, unit)
		for i, f := range chunk {
			ok[i] = layers.DecodeInto(&pkts[i], lt, f.Data) == nil
		}
		l.end(sp, len(chunk))
		sp = l.begin("flow.add", -1, unit)
		for i, f := range chunk {
			if ok[i] {
				tbl.AddPacket(f.Timestamp, &pkts[i], true)
			}
		}
		l.end(sp, len(chunk))
	}
	if start.IsZero() && len(frames) > 0 {
		start, end = frames[0].Timestamp, frames[len(frames)-1].Timestamp
	}
	sp := l.begin("filterpipe.run", -1, unit)
	fres := filterpipe.RunWithSNI(tbl, filterpipe.Config{CallStart: start, CallEnd: end}, firstSNI)
	l.end(sp, tbl.Len())
	c.frames += len(frames)
	c.streams += tbl.Len()
	c.closes++

	stats := report.NewAppStats(label)
	engine := dpi.NewEngine()
	for _, s := range fres.RTC {
		if s.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		payloads := make([][]byte, len(s.Packets))
		for i := range s.Packets {
			payloads[i] = s.Packets[i].Payload
		}
		c.rtcFrames += len(s.Packets)

		sp := l.begin("dpi.finalize", -1, unit)
		results := engine.InspectStream(payloads)
		l.end(sp, len(payloads))

		sp = l.begin("compliance.check", -1, unit)
		sess := compliance.NewCheckerWith(nil).NewSession()
		msgs := 0
		for i, r := range results {
			stats.AddDatagram(r.Class)
			if r.Class != dpi.ClassFullyProprietary {
				c.classified++
			}
			for _, m := range r.Messages {
				for _, chk := range sess.Check(m, s.Packets[i].Timestamp) {
					stats.AddChecked(chk)
				}
				msgs++
			}
		}
		l.end(sp, msgs)
		c.msgs += msgs
		c.dgrams += len(results)

		if qoeOn {
			sp = l.begin("qoe.observe", -1, unit)
			q := qoe.NewStream(qoe.Config{})
			for i := range s.Packets {
				q.Observe(s.Packets[i].Timestamp, len(s.Packets[i].Payload))
			}
			l.end(sp, len(s.Packets))
		}
	}
	return stats
}

// firstSNI is the analyzer's feed-time SNI rule: the first TCP segment
// that parses as a TLS ClientHello names the stream.
func firstSNI(s *flow.Stream) (string, bool) {
	if s.Key.Proto != layers.IPProtocolTCP {
		return "", false
	}
	for _, p := range s.Packets {
		if len(p.Payload) == 0 {
			continue
		}
		if sni, err := tlsinspect.SNI(p.Payload); err == nil {
			return sni, true
		}
	}
	return "", false
}

// diffStats compares the verdict totals the replay produced with the
// pipeline's: per message type the message and non-compliant counts,
// per protocol family the message and compliant counts, and the
// datagram classes. It returns nil when they agree.
func diffStats(pipeline, replay *report.AppStats) error {
	if len(pipeline.Types) != len(replay.Types) {
		return fmt.Errorf("%d message types in the pipeline, %d in the replay", len(pipeline.Types), len(replay.Types))
	}
	for k, p := range pipeline.Types {
		r := replay.Types[k]
		if r == nil || r.Total != p.Total || r.NonCompliant != p.NonCompliant {
			return fmt.Errorf("type %v: pipeline %d messages %d non-compliant, replay %v", k, p.Total, p.NonCompliant, r)
		}
	}
	if len(pipeline.ByProtocol) != len(replay.ByProtocol) {
		return fmt.Errorf("%d protocol families in the pipeline, %d in the replay", len(pipeline.ByProtocol), len(replay.ByProtocol))
	}
	for fam, p := range pipeline.ByProtocol {
		r := replay.ByProtocol[fam]
		if r == nil || r.Messages != p.Messages || r.Compliant != p.Compliant {
			return fmt.Errorf("family %v: pipeline %d messages %d compliant, replay %v", fam, p.Messages, p.Compliant, r)
		}
	}
	if len(pipeline.Datagrams) != len(replay.Datagrams) {
		return fmt.Errorf("%d datagram classes in the pipeline, %d in the replay", len(pipeline.Datagrams), len(replay.Datagrams))
	}
	for class, n := range pipeline.Datagrams {
		if replay.Datagrams[class] != n {
			return fmt.Errorf("class %v: pipeline %d datagrams, replay %d", class, n, replay.Datagrams[class])
		}
	}
	return nil
}

// addStats folds src's verdict totals into dst, the per-app sum
// core.RunMatrix keeps.
func addStats(dst, src *report.AppStats) {
	for k, s := range src.Types {
		d := dst.Types[k]
		if d == nil {
			d = &report.TypeStat{Reasons: make(map[string]int)}
			dst.Types[k] = d
		}
		d.Total += s.Total
		d.NonCompliant += s.NonCompliant
	}
	for fam, s := range src.ByProtocol {
		d := dst.ByProtocol[fam]
		if d == nil {
			d = &report.ProtoStat{}
			dst.ByProtocol[fam] = d
		}
		d.Messages += s.Messages
		d.Compliant += s.Compliant
	}
	for class, n := range src.Datagrams {
		dst.Datagrams[class] += n
	}
}

// renderReport renders the paper's six tables and three figures, the
// violation breakdown, and the findings.
func renderReport(g *report.Aggregate, rows []report.Table1Row, findings []core.Finding) string {
	var b strings.Builder
	for _, s := range []string{
		report.Table1(rows), report.Table2(g), report.Table3(g),
		report.Table4(g), report.Table5(g), report.Table6(g),
		report.Figure3(g), report.Figure4(g), report.Figure5(g),
		report.Violations(g),
	} {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	for _, f := range findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// captureReport renders one capture's analysis as a one-app report.
func captureReport(ca *core.CaptureAnalysis) string {
	g := report.NewAggregate()
	*g.App(ca.Label) = *ca.Stats
	f := ca.Filter
	row := report.Table1Row{
		App: ca.Label, VolumeBytes: ca.Bytes,
		RawUDP: f.RawUDP, RawTCP: f.RawTCP,
		Stage1UDP: f.Stage1UDP, Stage1TCP: f.Stage1TCP,
		Stage2UDP: f.Stage2UDP, Stage2TCP: f.Stage2TCP,
		RTCUDP: f.RTCUDP, RTCTCP: f.RTCTCP,
	}
	return renderReport(g, []report.Table1Row{row}, ca.Findings)
}
