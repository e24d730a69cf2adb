// Package rtcc is a measurement framework for studying protocol
// compliance in real-time communication (RTC) traffic, reproducing
// "Protocol Compliance in Popular RTC Applications" (IMC 2025).
//
// The framework has two halves:
//
//   - Analysis: given a packet capture of a 1-on-1 call, it groups
//     packets into streams, removes unrelated traffic with the paper's
//     two-stage filter, extracts STUN/TURN, RTP, RTCP, and QUIC
//     messages with an offset-shifting DPI that tolerates proprietary
//     headers, and judges every message against the five-criterion
//     compliance model.
//
//   - Synthesis: protocol-accurate emulators of the six studied
//     applications (Zoom, FaceTime, WhatsApp, Messenger, Discord,
//     Google Meet) regenerate each app's documented wire behaviour,
//     including every deviation from the paper's §5.2/§5.3, over a
//     simulated NAT/relay environment. The emulators stand in for the
//     paper's iPhone testbed; see DESIGN.md for the substitution
//     rationale.
//
// Quick start:
//
//	cap, _ := rtcc.GenerateCapture(rtcc.CaptureConfig{
//	    App: rtcc.Zoom, Network: rtcc.WiFiRelay, Seed: 1,
//	    Start: time.Now(), CallDuration: 10 * time.Second,
//	    PrePost: 5 * time.Second, Background: true,
//	})
//	res, _ := rtcc.Analyze(cap, rtcc.Options{})
//	fmt.Println(res.Stats.VolumeCompliance())
package rtcc

import (
	"io"
	"os"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/ingest"
	"github.com/rtc-compliance/rtcc/internal/interop"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/natsim"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/proto"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/report"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// MetricsRegistry collects pipeline observability counters, gauges, and
// latency histograms. Assign one to Options.Metrics to instrument an
// analysis run; a nil registry disables collection at zero cost and
// never changes analysis output.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Tracer receives the pipeline's decision trace: per-stream filter
// verdicts, Algorithm 1 probe steps, datagram classifications,
// five-criterion compliance verdicts, and findings. Assign one to
// Options.Tracer to record why each verdict was reached; nil disables
// tracing at zero cost and never changes analysis output.
type Tracer = obs.Tracer

// TraceEvent is one pipeline decision, the unit both trace sinks
// carry and the JSONL export serializes one-per-line.
type TraceEvent = obs.Event

// TraceBuffer is an in-memory trace sink backing -explain queries.
type TraceBuffer = obs.Buffer

// NewTraceBuffer returns a bounded in-memory trace sink (max <= 0
// selects the default capacity).
func NewTraceBuffer(max int) *TraceBuffer { return obs.NewBuffer(max) }

// NewJSONLTracer returns a trace sink writing one JSON event per line
// to w (the rtccheck -trace-out format). Call Flush before closing w.
func NewJSONLTracer(w io.Writer) *obs.JSONLWriter { return obs.NewJSONLWriter(w) }

// ExplainTrace replays recorded trace events and renders why-answers
// for the streams matching query ("<app>/<stream>/<msgtype>", each
// part an optional substring).
func ExplainTrace(events []TraceEvent, query string) string {
	return obs.Explain(events, obs.ParseQuery(query))
}

// Applications studied by the paper.
const (
	Zoom       = appsim.Zoom
	FaceTime   = appsim.FaceTime
	WhatsApp   = appsim.WhatsApp
	Messenger  = appsim.Messenger
	Discord    = appsim.Discord
	GoogleMeet = appsim.GoogleMeet
)

// App identifies an RTC application.
type App = appsim.App

// Apps lists the six studied applications.
var Apps = appsim.Apps

// Network configurations from the paper's experiment matrix.
const (
	WiFiP2P   = appsim.WiFiP2P
	WiFiRelay = appsim.WiFiRelay
	Cellular  = appsim.Cellular
)

// Network is one of the three experiment network configurations.
type Network = appsim.Network

// Protocol families reported by the framework.
const (
	ProtoSTUN = dpi.ProtoSTUN
	ProtoRTP  = dpi.ProtoRTP
	ProtoRTCP = dpi.ProtoRTCP
	ProtoQUIC = dpi.ProtoQUIC
	ProtoDTLS = dpi.ProtoDTLS
)

// Protocol identifies a protocol family.
type Protocol = dpi.Protocol

// ProtocolRegistry is the pluggable driver set the pipeline runs
// against: every protocol is one registered Handler providing wire
// probers, the five-criterion judge, and report metadata. Assign a
// restricted registry to Options.Registry to analyze with a protocol
// subset; nil selects the default registry with every linked driver.
type ProtocolRegistry = proto.Registry

// ProtocolMeta describes one registered protocol: name, metrics slug,
// reporting family, column order, and wire-format fingerprint.
type ProtocolMeta = proto.Meta

// DefaultRegistry returns the registry holding every protocol driver
// linked into the binary (importing this package links them all).
func DefaultRegistry() *ProtocolRegistry { return proto.Default() }

// Protocols enumerates the supported protocols in report order.
func Protocols() []ProtocolMeta { return proto.Default().Metas() }

// CaptureConfig parameterizes one synthetic experiment capture.
type CaptureConfig = trace.CaptureConfig

// Capture is a synthetic experiment capture (call plus background
// noise) that can be analyzed in memory or written as a pcap file.
type Capture = trace.Capture

// MatrixOptions parameterizes the full 6-app × 3-network experiment
// matrix.
type MatrixOptions = trace.MatrixOptions

// ImpairProfile is a composable network-impairment profile (loss,
// burst loss, jitter with bounded reordering, duplication, mid-call
// NAT rebinding) applied deterministically to a capture's call traffic
// via CaptureConfig.Impair or MatrixOptions.Impair.
type ImpairProfile = natsim.Profile

// ImpairProfileByName resolves a standard impairment profile by name.
func ImpairProfileByName(name string) (ImpairProfile, bool) {
	return natsim.ProfileByName(name)
}

// Options configures an analysis run (DPI offset limit, RunMatrix's
// capture-pool size, idle eviction, protocol registry, and the metrics,
// trace, and QoE sinks). The filter's call-window slack and SNI
// blocklist are the paper's fixed §3.2 values. Workers sizes only
// RunMatrix's pool (0 uses every CPU, 1 forces the serial path; results
// are identical either way); one capture's parallelism is the shard
// count of NewShardedAnalyzer and AnalyzePCAPSharded.
type Options = core.Options

// CaptureAnalysis is the per-capture analysis result: filter
// accounting, per-message statistics, and behavioural findings.
type CaptureAnalysis = core.CaptureAnalysis

// MatrixAnalysis aggregates an entire experiment matrix.
type MatrixAnalysis = core.MatrixAnalysis

// Finding is one behavioural observation (filler messages, proprietary
// keepalives, direction flags, SSRC reuse).
type Finding = core.Finding

// Aggregate holds per-application statistics for report rendering.
type Aggregate = report.Aggregate

// AppStats holds one application's measured statistics.
type AppStats = report.AppStats

// GenerateCapture builds one synthetic capture.
func GenerateCapture(cfg CaptureConfig) (*Capture, error) {
	return trace.Generate(cfg)
}

// GroupCallConfig parameterizes an N-party conference call (the paper's
// future-work extension; Zoom and Google Meet only).
type GroupCallConfig = appsim.GroupCallConfig

// AnalyzeGroupCall generates an N-party group call and runs the full
// pipeline over it.
func AnalyzeGroupCall(cfg GroupCallConfig, opts Options) (*CaptureAnalysis, error) {
	call, err := appsim.GenerateGroup(cfg)
	if err != nil {
		return nil, err
	}
	cap := &trace.Capture{
		Config: trace.CaptureConfig{
			App: cfg.App, Network: appsim.WiFiRelay, Seed: cfg.Seed,
			Start: cfg.Start, CallDuration: cfg.Duration, MediaRate: cfg.MediaRate,
		},
		Mode:      call.Mode,
		Events:    call.Events,
		CallStart: call.CallStart,
		CallEnd:   call.CallEnd,
		RTCEvents: len(call.Events),
	}
	return Analyze(cap, opts)
}

// Matrix expands matrix options into per-call capture configurations.
func Matrix(o MatrixOptions) []CaptureConfig {
	return trace.Matrix(o)
}

// Analyze runs the full pipeline (filter → DPI → compliance) over a
// synthetic capture on one goroutine. For per-capture parallelism feed
// the capture's frames to a NewShardedAnalyzer.
func Analyze(cap *Capture, opts Options) (*CaptureAnalysis, error) {
	return core.AnalyzeCapture(cap.Input(), opts)
}

// LinkType identifies the layer-2 framing of frames fed to an
// Analyzer.
type LinkType = pcap.LinkType

// Link types accepted by the analyzer. LinkTypeRaw is raw IP with no
// Ethernet header (what Apple RVI captures produce).
const (
	LinkTypeEthernet = pcap.LinkTypeEthernet
	LinkTypeRaw      = pcap.LinkTypeRaw
)

// Analyzer is the incremental analysis engine behind every entry point:
// Feed it one frame at a time and Close it for the CaptureAnalysis.
// Use it directly to analyze a source the wrappers don't cover (a live
// socket, a message queue) without buffering the capture.
type Analyzer = core.Analyzer

// AnalyzerConfig parameterizes an incremental Analyzer. A zero
// CallStart or CallEnd defaults to the first or last fed frame's
// timestamp.
// The analyzer references fed payloads in place when FramesStable
// promises the frames outlive it, and otherwise copies the payloads it
// keeps into a process-wide buffer pool (DESIGN.md §14).
type AnalyzerConfig = core.AnalyzerConfig

// Datagram is one timestamped link-layer frame, the unit of the
// batched ingestion path: fill a slice and hand it to
// Analyzer.FeedBatch. Frame bytes only need to stay valid for the
// duration of the call (DESIGN.md §14), so readers may reuse their
// buffers between batches.
type Datagram = core.Datagram

// NewAnalyzer returns an incremental analyzer; see Analyzer.
func NewAnalyzer(cfg AnalyzerConfig, opts Options) (*Analyzer, error) {
	return core.NewAnalyzer(cfg, opts)
}

// AnalyzePCAP analyzes a pcap stream on one goroutine. A zero
// callStart defaults the call window to the capture's span.
// AnalyzePCAPSharded is the same analysis on several CPUs.
func AnalyzePCAP(r io.Reader, label string, callStart, callEnd time.Time, opts Options) (*CaptureAnalysis, error) {
	return core.AnalyzePCAP(r, label, callStart, callEnd, opts)
}

// ShardedAnalyzer routes datagrams by flow 5-tuple onto N single-writer
// Analyzer shards fed through bounded queues (one shard is fed inline,
// on the caller's goroutine), and merges the shard states at Close,
// which finalizes the surviving streams on N goroutines. It is how one
// capture uses several CPUs. Output, decision trace included, is
// byte-identical to a serial Analyzer fed the same frames in the same
// order, for any shard count (DESIGN.md §15). Feed it from one
// goroutine, exactly like an Analyzer.
type ShardedAnalyzer = ingest.ShardedAnalyzer

// ShardConfig parameterizes the sharded ingest tier: the shard count
// and the back-pressure policy. The zero value selects one shard per
// CPU with lossless back-pressure; under Options.EvictIdle, which runs
// on one shard only, it selects one shard, and an explicit count above
// one is rejected.
type ShardConfig = ingest.Config

// ShardPolicy selects what a full shard queue does to the producer:
// ShardBlock stalls it (lossless, default), ShardDrop sheds the staged
// batch and counts every dropped datagram.
type ShardPolicy = ingest.Policy

// Shard back-pressure policies.
const (
	ShardBlock = ingest.Block
	ShardDrop  = ingest.Drop
)

// ShardStats is a snapshot of the sharded tier's datagram accounting
// (fed / analyzed / dropped / back-pressure, per shard and total).
type ShardStats = ingest.Stats

// NewShardedAnalyzer returns a sharded analyzer; see ShardedAnalyzer.
func NewShardedAnalyzer(cfg AnalyzerConfig, opts Options, scfg ShardConfig) (*ShardedAnalyzer, error) {
	return ingest.New(cfg, opts, scfg)
}

// AnalyzePCAPSharded analyzes a pcap stream through the sharded ingest
// tier: same result as AnalyzePCAP, computed on scfg.Shards cores (one
// per CPU when zero, one under Options.EvictIdle).
func AnalyzePCAPSharded(r io.Reader, label string, callStart, callEnd time.Time, opts Options, scfg ShardConfig) (*CaptureAnalysis, error) {
	return ingest.AnalyzePCAP(r, label, callStart, callEnd, opts, scfg)
}

// AnalyzeFile analyzes a pcap file on one goroutine, like AnalyzePCAP.
func AnalyzeFile(path string, callStart, callEnd time.Time, opts Options) (*CaptureAnalysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.AnalyzePCAP(f, path, callStart, callEnd, opts)
}

// RunMatrix generates and analyzes the whole experiment matrix,
// producing the aggregate behind every paper table and figure. Capture
// generation and analysis run concurrently on Options.Workers
// goroutines (all CPUs by default); results are folded back in
// deterministic config order, so the output is identical to a serial
// run.
func RunMatrix(mopts MatrixOptions, opts Options) (*MatrixAnalysis, error) {
	return core.RunMatrix(mopts, opts)
}

// InteropProfile is one application's interoperability profile (§6):
// spec-parseability, message compliance, and the adaptation shims a
// pure-RFC peer needs to process its traffic.
type InteropProfile = interop.Profile

// InteropAssessment scores one application pairing.
type InteropAssessment = interop.Assessment

// Interoperability analysis functions (§6 of the paper, quantified).
var (
	// BuildInteropProfile derives a profile from measured statistics.
	BuildInteropProfile = interop.BuildProfile
	// InteropPairwise assesses mutual interoperability of two profiles.
	InteropPairwise = interop.Pairwise
	// InteropMatrix assesses every ordered pair from an aggregate.
	InteropMatrix = interop.Matrix
	// DescribeInteropProfile renders a profile as text.
	DescribeInteropProfile = interop.Describe
)

// Report renderers for the paper's tables and figures.
var (
	// RenderTable1 renders traffic-trace and filtering accounting.
	RenderTable1 = report.Table1
	// RenderTable2 renders the message distribution by protocol.
	RenderTable2 = report.Table2
	// RenderTable3 renders the compliance-by-message-type matrix.
	RenderTable3 = report.Table3
	// RenderTable4 renders observed STUN/TURN types per app.
	RenderTable4 = report.Table4
	// RenderTable5 renders observed RTP payload types per app.
	RenderTable5 = report.Table5
	// RenderTable6 renders observed RTCP packet types per app.
	RenderTable6 = report.Table6
	// RenderFigure3 renders the datagram-class breakdown.
	RenderFigure3 = report.Figure3
	// RenderFigure4 renders volume-based compliance ratios.
	RenderFigure4 = report.Figure4
	// RenderFigure5 renders type-based compliance ratios.
	RenderFigure5 = report.Figure5
)

// Header-free QoE estimation. QoEConfig on Options (or `analysis.qoe:
// true` in a pipeline config) estimates per-stream media features —
// frame rate, bitrate, inter-frame gap jitter, stalls — from packet
// timing and sizes alone, deterministic across shard counts.
type (
	// QoEConfig enables header-free QoE estimation; the zero value
	// uses the default frame/stall gap thresholds and media gates.
	QoEConfig = qoe.Config
	// QoECapture is a capture's QoE result: per-stream features plus
	// the media-stream summary trend points carry.
	QoECapture = qoe.Capture
	// QoEStreamFeatures is one stream's estimated feature vector.
	QoEStreamFeatures = qoe.StreamFeatures
	// QoESummary is the capture-level roll-up over media streams.
	QoESummary = qoe.Summary
)
