// Benchmarks regenerating every table and figure of the paper's
// evaluation section (§5), plus the §4.1.1 DPI offset-limit sweep and
// codec microbenchmarks.
//
// Each table/figure bench runs the full pipeline over the synthetic
// experiment matrix and reports the paper's headline numbers as custom
// benchmark metrics, so `go test -bench=. -benchmem` both measures the
// framework's throughput and prints the reproduced results. The
// human-readable tables themselves come from `go run ./cmd/rtcreport`.
package rtcc_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	rtcc "github.com/rtc-compliance/rtcc"
	"github.com/rtc-compliance/rtcc/internal/bench"
	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/filterpipe"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/srtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

var benchStart = time.Unix(1700000000, 0).UTC()

// benchCaptures generates the experiment matrix once and shares it
// across benchmarks (generation cost stays out of the timed sections).
var (
	capturesOnce sync.Once
	captures     []*rtcc.Capture
)

func matrixCaptures(b *testing.B) []*rtcc.Capture {
	b.Helper()
	capturesOnce.Do(func() {
		configs := rtcc.Matrix(rtcc.MatrixOptions{
			Runs:         1,
			CallDuration: 10 * time.Second,
			PrePost:      8 * time.Second,
			MediaRate:    25,
			Start:        benchStart,
			BaseSeed:     500,
			Background:   true,
		})
		for _, cfg := range configs {
			cap, err := rtcc.GenerateCapture(cfg)
			if err != nil {
				panic(err)
			}
			captures = append(captures, cap)
		}
	})
	return captures
}

// decodedStreams builds flow tables for every capture, outside timers.
func decodedStreams(b *testing.B) []*flow.Table {
	b.Helper()
	caps := matrixCaptures(b)
	tables := make([]*flow.Table, len(caps))
	for i, cap := range caps {
		t := flow.NewTable()
		for _, f := range cap.Frames() {
			pkt, err := layers.Decode(pcap.LinkTypeRaw, f.Data)
			if err != nil {
				continue
			}
			t.Add(f.Timestamp, pkt)
		}
		tables[i] = t
	}
	return tables
}

// analyzeMatrix runs the full pipeline over the shared captures.
func analyzeMatrix(b *testing.B) *rtcc.MatrixAnalysis {
	b.Helper()
	ma, err := rtcc.RunMatrix(rtcc.MatrixOptions{
		Runs:         1,
		CallDuration: 10 * time.Second,
		PrePost:      8 * time.Second,
		MediaRate:    25,
		Start:        benchStart,
		BaseSeed:     500,
		Background:   true,
	}, rtcc.Options{SkipFindings: true})
	if err != nil {
		b.Fatal(err)
	}
	return ma
}

// BenchmarkTable1_FilteringPipeline regenerates Table 1: the two-stage
// filter over every capture. Reported metrics: surviving RTC streams
// and packets across the matrix.
func BenchmarkTable1_FilteringPipeline(b *testing.B) {
	caps := matrixCaptures(b)
	tables := decodedStreams(b)
	var rtcStreams, rtcPackets, packets int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtcStreams, rtcPackets, packets = 0, 0, 0
		for j, table := range tables {
			res := filterpipe.Run(table, filterpipe.Config{
				CallStart: caps[j].CallStart,
				CallEnd:   caps[j].CallEnd,
			})
			rtcStreams += res.RTCUDP.Streams + res.RTCTCP.Streams
			rtcPackets += res.RTCUDP.Packets + res.RTCTCP.Packets
			packets += table.PacketCount()
		}
	}
	b.ReportMetric(float64(packets*b.N)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(rtcStreams), "rtc_streams")
	b.ReportMetric(float64(rtcPackets), "rtc_packets")
}

// dpiOverMatrix runs DPI over every RTC UDP stream of every capture.
func dpiOverMatrix(b *testing.B, engine *dpi.Engine, visit func(app rtcc.App, r dpi.Result)) {
	caps := matrixCaptures(b)
	tables := decodedStreams(b)
	for j, table := range tables {
		res := filterpipe.Run(table, filterpipe.Config{
			CallStart: caps[j].CallStart,
			CallEnd:   caps[j].CallEnd,
		})
		for _, s := range res.RTC {
			if s.Key.Proto != layers.IPProtocolUDP {
				continue
			}
			payloads := make([][]byte, len(s.Packets))
			for k, p := range s.Packets {
				payloads[k] = p.Payload
			}
			for _, r := range engine.InspectStream(payloads) {
				visit(caps[j].Config.App, r)
			}
		}
	}
}

// BenchmarkTable2_MessageDistribution regenerates Table 2: message
// counts per protocol family per app. Reported metrics: Zoom's fully
// proprietary share and Meet's STUN/TURN share (the table's two
// signature values).
func BenchmarkTable2_MessageDistribution(b *testing.B) {
	var zoomFP, zoomUnits, meetSTUN, meetUnits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zoomFP, zoomUnits, meetSTUN, meetUnits = 0, 0, 0, 0
		dpiOverMatrix(b, dpi.NewEngine(), func(app rtcc.App, r dpi.Result) {
			switch app {
			case rtcc.Zoom:
				if r.Class == dpi.ClassFullyProprietary {
					zoomFP++
					zoomUnits++
				}
				zoomUnits += len(r.Messages)
			case rtcc.GoogleMeet:
				if r.Class == dpi.ClassFullyProprietary {
					meetUnits++
				}
				for _, m := range r.Messages {
					if m.Protocol.Family() == dpi.ProtoSTUN {
						meetSTUN++
					}
					meetUnits++
				}
			}
		})
	}
	b.ReportMetric(100*float64(zoomFP)/float64(zoomUnits), "zoom_fullyprop_%")
	b.ReportMetric(100*float64(meetSTUN)/float64(meetUnits), "meet_stun_%")
}

// BenchmarkFigure3_DatagramBreakdown regenerates Figure 3: datagram
// classification per app. Metrics: Zoom and FaceTime proprietary-header
// shares.
func BenchmarkFigure3_DatagramBreakdown(b *testing.B) {
	counts := map[rtcc.App]map[dpi.Class]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts = map[rtcc.App]map[dpi.Class]int{}
		dpiOverMatrix(b, dpi.NewEngine(), func(app rtcc.App, r dpi.Result) {
			m := counts[app]
			if m == nil {
				m = map[dpi.Class]int{}
				counts[app] = m
			}
			m[r.Class]++
		})
	}
	share := func(app rtcc.App, class dpi.Class) float64 {
		total := 0
		for _, n := range counts[app] {
			total += n
		}
		if total == 0 {
			return 0
		}
		return 100 * float64(counts[app][class]) / float64(total)
	}
	b.ReportMetric(share(rtcc.Zoom, dpi.ClassProprietaryHeader), "zoom_prophdr_%")
	b.ReportMetric(share(rtcc.FaceTime, dpi.ClassProprietaryHeader), "facetime_prophdr_%")
	b.ReportMetric(share(rtcc.WhatsApp, dpi.ClassStandard), "whatsapp_standard_%")
}

// BenchmarkFigure4_VolumeCompliance regenerates Figure 4: the
// volume-based compliance ratios. Metrics: the app-centric extremes and
// the QUIC protocol ratio.
func BenchmarkFigure4_VolumeCompliance(b *testing.B) {
	var ma *rtcc.MatrixAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma = analyzeMatrix(b)
	}
	b.StopTimer()
	zoom, _ := ma.Aggregate.App(string(rtcc.Zoom)).VolumeCompliance()
	ft, _ := ma.Aggregate.App(string(rtcc.FaceTime)).VolumeCompliance()
	quic, _, _ := ma.Aggregate.ProtocolRollup(dpi.ProtoQUIC)
	b.ReportMetric(100*zoom, "zoom_vol_%")
	b.ReportMetric(100*ft, "facetime_vol_%")
	b.ReportMetric(100*float64(quic.Compliant)/float64(quic.Messages), "quic_vol_%")
}

// BenchmarkTable3_TypeCompliance regenerates Table 3: the
// type-compliance matrix. Metrics: the protocol-centric bottom row.
func BenchmarkTable3_TypeCompliance(b *testing.B) {
	var ma *rtcc.MatrixAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma = analyzeMatrix(b)
	}
	b.StopTimer()
	for _, fam := range []dpi.Protocol{dpi.ProtoSTUN, dpi.ProtoRTP, dpi.ProtoRTCP, dpi.ProtoQUIC} {
		_, c, t := ma.Aggregate.ProtocolRollup(fam)
		if t == 0 {
			continue
		}
		name := map[dpi.Protocol]string{
			dpi.ProtoSTUN: "stun", dpi.ProtoRTP: "rtp",
			dpi.ProtoRTCP: "rtcp", dpi.ProtoQUIC: "quic",
		}[fam]
		b.ReportMetric(float64(c), name+"_compliant_types")
		b.ReportMetric(float64(t), name+"_total_types")
	}
}

// typeTableBench regenerates one observed-types table (Tables 4-6),
// reporting the distinct type counts per family.
func typeTableBench(b *testing.B, fam dpi.Protocol, metric string) {
	var ma *rtcc.MatrixAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma = analyzeMatrix(b)
	}
	b.StopTimer()
	total := 0
	nonCompliant := 0
	for _, app := range ma.Aggregate.Apps() {
		c, t := app.TypeCompliance(fam)
		total += t
		nonCompliant += t - c
	}
	b.ReportMetric(float64(total), metric+"_types_observed")
	b.ReportMetric(float64(nonCompliant), metric+"_types_noncompliant")
}

// BenchmarkTable4_STUNTypes regenerates Table 4 (STUN/TURN types).
func BenchmarkTable4_STUNTypes(b *testing.B) { typeTableBench(b, dpi.ProtoSTUN, "stun") }

// BenchmarkTable5_RTPTypes regenerates Table 5 (RTP payload types).
func BenchmarkTable5_RTPTypes(b *testing.B) { typeTableBench(b, dpi.ProtoRTP, "rtp") }

// BenchmarkTable6_RTCPTypes regenerates Table 6 (RTCP packet types).
func BenchmarkTable6_RTCPTypes(b *testing.B) { typeTableBench(b, dpi.ProtoRTCP, "rtcp") }

// BenchmarkFigure5_TypeComplianceRatio regenerates Figure 5: type-based
// compliance per protocol and per app. Metrics: the two extremes the
// paper highlights (Zoom most, Discord least compliant by type).
func BenchmarkFigure5_TypeComplianceRatio(b *testing.B) {
	var ma *rtcc.MatrixAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma = analyzeMatrix(b)
	}
	b.StopTimer()
	zc, zt := ma.Aggregate.App(string(rtcc.Zoom)).TypeCompliance(dpi.ProtoUnknown)
	dc, dt := ma.Aggregate.App(string(rtcc.Discord)).TypeCompliance(dpi.ProtoUnknown)
	b.ReportMetric(100*float64(zc)/float64(zt), "zoom_type_%")
	b.ReportMetric(100*float64(dc)/float64(maxInt(dt, 1)), "discord_type_%")
}

// BenchmarkDPI_OffsetSweep reproduces the §4.1.1 k-limit experiment:
// message recall and cost as the candidate-extraction offset limit
// varies. k=200 must reach the recall of a full-payload scan.
func BenchmarkDPI_OffsetSweep(b *testing.B) {
	caps := matrixCaptures(b)
	tables := decodedStreams(b)
	type streamSet struct {
		payloads [][]byte
	}
	var streams []streamSet
	for j, table := range tables {
		res := filterpipe.Run(table, filterpipe.Config{
			CallStart: caps[j].CallStart, CallEnd: caps[j].CallEnd,
		})
		for _, s := range res.RTC {
			if s.Key.Proto != layers.IPProtocolUDP {
				continue
			}
			payloads := make([][]byte, len(s.Packets))
			for k, p := range s.Packets {
				payloads[k] = p.Payload
			}
			streams = append(streams, streamSet{payloads})
		}
	}
	for _, k := range []int{16, 64, 200, 1500} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			engine := &dpi.Engine{MaxOffset: k}
			msgs := 0
			for i := 0; i < b.N; i++ {
				msgs = 0
				for _, ss := range streams {
					for _, r := range engine.InspectStream(ss.payloads) {
						msgs += len(r.Messages)
					}
				}
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// --- Concurrent analysis engine benchmarks. ---

// matrixOptionsForBench are the shared full-matrix options used by the
// parallel-vs-serial comparisons.
var matrixOptionsForBench = rtcc.MatrixOptions{
	Runs:         1,
	CallDuration: 10 * time.Second,
	PrePost:      8 * time.Second,
	MediaRate:    25,
	Start:        benchStart,
	BaseSeed:     500,
	Background:   true,
}

func runMatrixWorkers(b *testing.B, workers int) *rtcc.MatrixAnalysis {
	b.Helper()
	ma, err := rtcc.RunMatrix(matrixOptionsForBench, rtcc.Options{SkipFindings: true, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return ma
}

// BenchmarkRunMatrix_Workers measures full-matrix throughput (capture
// generation + analysis) at several worker-pool sizes. workers=1 is the
// serial reference path.
func BenchmarkRunMatrix_Workers(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var ma *rtcc.MatrixAnalysis
			for i := 0; i < b.N; i++ {
				ma = runMatrixWorkers(b, w)
			}
			b.ReportMetric(float64(ma.Captures*b.N)/b.Elapsed().Seconds(), "captures/s")
		})
	}
}

// BenchmarkRunMatrix_ParallelSpeedup reports the parallel-vs-serial
// speedup of the full-matrix pipeline as a custom metric: the serial
// (Workers=1) wall time divided by the parallel (all cores) per-run
// time. On a multi-core runner this should comfortably exceed 1.5x;
// on a single core it degenerates to ≈1x.
func BenchmarkRunMatrix_ParallelSpeedup(b *testing.B) {
	start := time.Now()
	runMatrixWorkers(b, 1)
	serial := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMatrixWorkers(b, runtime.GOMAXPROCS(0))
	}
	parallel := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup_x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkAnalyzeCapture_Shards sweeps the per-capture parallelism
// setting, the shard count, on one large capture (no generation cost):
// each run feeds the capture through rtcc.NewShardedAnalyzer configured
// as rtcc.Analyze configures its Analyzer, and Close finalizes the
// merged streams on one goroutine per shard.
func BenchmarkAnalyzeCapture_Shards(b *testing.B) {
	cap, err := rtcc.GenerateCapture(rtcc.CaptureConfig{
		App: rtcc.GoogleMeet, Network: rtcc.WiFiRelay, Seed: 9,
		Start: benchStart, CallDuration: 10 * time.Second,
		PrePost: 8 * time.Second, MediaRate: 25, Background: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := cap.Input()
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, n := range counts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sa, err := rtcc.NewShardedAnalyzer(rtcc.AnalyzerConfig{
					Label: in.Label, LinkType: in.LinkType,
					CallStart: in.CallStart, CallEnd: in.CallEnd,
					FramesStable: true,
				}, rtcc.Options{SkipFindings: true}, rtcc.ShardConfig{Shards: n})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range in.Packets {
					if err := sa.Feed(p.Timestamp, p.Data); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sa.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeCapture_MetricsOverhead compares the full pipeline
// over one capture with metrics disabled (nil registry — the default)
// and enabled. The nil path must stay within noise of the pre-metrics
// pipeline: disabled instruments are nil pointers whose methods branch
// and return, and no timestamps are taken.
func BenchmarkAnalyzeCapture_MetricsOverhead(b *testing.B) {
	cap, err := rtcc.GenerateCapture(rtcc.CaptureConfig{
		App: rtcc.GoogleMeet, Network: rtcc.WiFiRelay, Seed: 9,
		Start: benchStart, CallDuration: 10 * time.Second,
		PrePost: 8 * time.Second, MediaRate: 25, Background: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	frames := cap.Frames()
	bytes := 0
	for _, f := range frames {
		bytes += len(f.Data)
	}
	b.Run("disabled", func(b *testing.B) {
		b.SetBytes(int64(bytes))
		for i := 0; i < b.N; i++ {
			if _, err := rtcc.Analyze(cap, rtcc.Options{SkipFindings: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.SetBytes(int64(bytes))
		for i := 0; i < b.N; i++ {
			reg := rtcc.NewMetricsRegistry()
			if _, err := rtcc.Analyze(cap, rtcc.Options{SkipFindings: true, Metrics: reg}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Codec and pipeline microbenchmarks. ---

func BenchmarkSTUNDecode(b *testing.B) {
	r := ice.NewRand(1)
	local := &ice.Agent{Ufrag: "a", Password: "passwordpasswordpass", Controlling: true}
	remote := &ice.Agent{Ufrag: "b", Password: "passwordpasswordpass"}
	raw := local.BindingRequest(r, remote, 100, true).Raw
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stun.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTPDecode(b *testing.B) {
	p := &rtp.Packet{PayloadType: 111, SequenceNumber: 1, Timestamp: 960, SSRC: 7,
		Extension: &rtp.Extension{Profile: rtp.ProfileOneByte,
			Elements: []rtp.ExtensionElement{{ID: 1, Payload: []byte{1, 2, 3}}}},
		Payload: make([]byte, 960)}
	raw := p.Encode()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtp.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTCPDecodeCompound(b *testing.B) {
	comp := rtcp.Compound(
		rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 1, Info: rtcp.SenderInfo{NTPTimestamp: 1}}),
		rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: 1, Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "a@b"}}}}}),
		rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{FMT: 15, SenderSSRC: 1, MediaSSRC: 2, FCI: make([]byte, 16)}),
	)
	b.SetBytes(int64(len(comp)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rtcp.DecodeCompound(comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSRTCPProtect(b *testing.B) {
	ctx, err := srtp.NewContext(make([]byte, srtp.MasterKeyLen), make([]byte, srtp.MasterSaltLen))
	if err != nil {
		b.Fatal(err)
	}
	plain := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 9, Info: rtcp.SenderInfo{NTPTimestamp: 7}})
	b.SetBytes(int64(len(plain)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.ProtectRTCP(plain, uint32(i), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComplianceCheckSTUN(b *testing.B) {
	r := ice.NewRand(1)
	msg := ice.ServerBindingRequest(r)
	m := dpi.Message{Protocol: dpi.ProtoSTUN, Length: len(msg.Raw), STUN: msg}
	checker := compliance.NewChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := checker.NewSession()
		s.Check(m, benchStart)
	}
}

func BenchmarkGenerateCall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := trace.Generate(trace.CaptureConfig{
			App: rtcc.Zoom, Network: rtcc.WiFiRelay, Seed: uint64(i),
			Start: benchStart, CallDuration: 5 * time.Second,
			PrePost: 2 * time.Second, MediaRate: 25, Background: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// pcapBench holds one large background-heavy capture serialized as a
// classic pcap file, shared by the streaming-vs-batch file benchmarks
// (the traffic mix a capture host actually sees: a short call inside a
// long capture full of unrelated noise).
var (
	pcapBenchOnce sync.Once
	pcapBenchRaw  []byte
	pcapBenchCap  *rtcc.Capture
)

func pcapBenchFile(b *testing.B) ([]byte, *rtcc.Capture) {
	b.Helper()
	pcapBenchOnce.Do(func() {
		cap, err := rtcc.GenerateCapture(rtcc.CaptureConfig{
			App: rtcc.Zoom, Network: rtcc.WiFiRelay, Seed: 4242,
			Start: benchStart, CallDuration: 3 * time.Second,
			PrePost: 90 * time.Second, MediaRate: 10, Background: true,
			BackgroundBulk: 6000,
		})
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		w := pcap.NewWriter(&buf, pcap.LinkTypeRaw)
		for _, f := range cap.Frames() {
			if err := w.WritePacket(f); err != nil {
				panic(err)
			}
		}
		pcapBenchRaw, pcapBenchCap = buf.Bytes(), cap
	})
	return pcapBenchRaw, pcapBenchCap
}

// BenchmarkAnalyzePCAP_Streaming measures the single-pass file path:
// one reusable record buffer, per-stream state only, payloads dropped
// as soon as the online filter removes a stream or the DPI consumes
// them. Run with -benchmem; core's TestStreamingMemoryRatio pins its
// bytes/op against the read-everything reference, and peak-streams is
// the high-water mark of concurrently live per-stream states (the
// quantity that bounds resident memory).
func BenchmarkAnalyzePCAP_Streaming(b *testing.B) {
	raw, cap := pcapBenchFile(b)
	reg := rtcc.NewMetricsRegistry()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtcc.AnalyzePCAP(bytes.NewReader(raw), "zoom", cap.CallStart, cap.CallEnd,
			rtcc.Options{SkipFindings: true, Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	peak := reg.Snapshot().Gauges[metrics.Name("core_active_streams_peak", metrics.L("app", "zoom"))]
	b.ReportMetric(float64(peak), "peak-streams")
}

func BenchmarkEndToEndCapture(b *testing.B) {
	cap, err := rtcc.GenerateCapture(rtcc.CaptureConfig{
		App: rtcc.GoogleMeet, Network: rtcc.WiFiRelay, Seed: 9,
		Start: benchStart, CallDuration: 10 * time.Second,
		PrePost: 8 * time.Second, MediaRate: 25, Background: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	frames := cap.Frames()
	bytes := 0
	for _, f := range frames {
		bytes += len(f.Data)
	}
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtcc.Analyze(cap, rtcc.Options{SkipFindings: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkDPI_BaselineComparison contrasts the paper's custom DPI with
// a conventional strict classifier (nDPI/Peafowl style: offset-zero
// matching, static payload-type whitelist). The metrics quantify §4.1's
// motivation: the share of real protocol messages a conventional engine
// misses entirely.
func BenchmarkDPI_BaselineComparison(b *testing.B) {
	caps := matrixCaptures(b)
	tables := decodedStreams(b)
	var streams [][][]byte
	for j, table := range tables {
		res := filterpipe.Run(table, filterpipe.Config{
			CallStart: caps[j].CallStart, CallEnd: caps[j].CallEnd,
		})
		for _, s := range res.RTC {
			if s.Key.Proto != layers.IPProtocolUDP {
				continue
			}
			payloads := make([][]byte, len(s.Packets))
			for k, p := range s.Packets {
				payloads[k] = p.Payload
			}
			streams = append(streams, payloads)
		}
	}

	custom := dpi.NewEngine()
	customMsgs := 0
	for _, payloads := range streams {
		for _, r := range custom.InspectStream(payloads) {
			customMsgs += len(r.Messages)
		}
	}

	b.Run("strict-baseline", func(b *testing.B) {
		e := dpi.StrictEngine{}
		msgs := 0
		for i := 0; i < b.N; i++ {
			msgs = 0
			for _, payloads := range streams {
				for _, r := range e.InspectStream(payloads) {
					msgs += len(r.Messages)
				}
			}
		}
		b.ReportMetric(float64(msgs), "messages")
		b.ReportMetric(100*float64(msgs)/float64(maxInt(customMsgs, 1)), "recall_vs_custom_%")
	})
	b.Run("custom", func(b *testing.B) {
		msgs := 0
		for i := 0; i < b.N; i++ {
			msgs = 0
			for _, payloads := range streams {
				for _, r := range custom.InspectStream(payloads) {
					msgs += len(r.Messages)
				}
			}
		}
		b.ReportMetric(float64(msgs), "messages")
	})
}

// BenchmarkFilter_StageAblation isolates the contribution of each
// filtering stage (§3.2): how many background streams stage 1's
// timespan rule removes on its own, and how many survive it only to be
// caught by each stage-2 heuristic. Metrics quantify why both stages
// are needed.
func BenchmarkFilter_StageAblation(b *testing.B) {
	caps := matrixCaptures(b)
	tables := decodedStreams(b)
	var stage1, byRule3Tuple, bySNI, byLocalIP, byPort int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage1, byRule3Tuple, bySNI, byLocalIP, byPort = 0, 0, 0, 0, 0
		for j, table := range tables {
			res := filterpipe.Run(table, filterpipe.Config{
				CallStart: caps[j].CallStart,
				CallEnd:   caps[j].CallEnd,
			})
			for _, rm := range res.Removed {
				switch rm.Rule {
				case filterpipe.RuleTimespan:
					stage1++
				case filterpipe.RuleThreeTuple:
					byRule3Tuple++
				case filterpipe.RuleSNI:
					bySNI++
				case filterpipe.RuleLocalIP:
					byLocalIP++
				case filterpipe.RulePort:
					byPort++
				}
			}
		}
	}
	b.ReportMetric(float64(stage1), "stage1_timespan")
	b.ReportMetric(float64(byRule3Tuple), "stage2_3tuple")
	b.ReportMetric(float64(bySNI), "stage2_sni")
	b.ReportMetric(float64(byLocalIP), "stage2_localip")
	b.ReportMetric(float64(byPort), "stage2_port")
}

// BenchmarkHotPath runs the internal/bench scenario matrix — every
// ingestion mode (pooled FeedBatch, AnalyzeCapture's in-memory batch,
// sharded) over the relay, P2P, and media-heavy cells. The same harness backs
// `make bench-json` and the CI regression gate, so these numbers and
// the committed BENCH_hotpath.json baseline measure identical code.
// The pkts/s metric counts only time inside the ingestion loop
// (analyzer construction and Close are untimed in the harness but
// inside b.N here, so ns/op reads higher than the JSON's ingest-only
// ns_per_op).
func BenchmarkHotPath(b *testing.B) {
	for _, sc := range bench.Scenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			p, err := bench.Prepare(sc)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(p.Bytes)
			b.ResetTimer()
			var ingest time.Duration
			for i := 0; i < b.N; i++ {
				d, err := p.RunOnce()
				if err != nil {
					b.Fatal(err)
				}
				ingest += d
			}
			b.ReportMetric(float64(p.Packets)*float64(b.N)/ingest.Seconds(), "pkts/s")
		})
	}
}
