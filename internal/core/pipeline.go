// Package core wires the measurement framework together: packet
// decoding, stream grouping, the two-stage unrelated-traffic filter,
// DPI message extraction, five-criterion compliance checking, and
// aggregation into the paper's metrics. It is the engine behind the
// public rtcc API, the command-line tools, and the benchmarks.
package core

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/filterpipe"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/report"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// Options configures an analysis run.
type Options struct {
	// MaxOffset is the DPI's k parameter; zero selects the paper's 200.
	MaxOffset int
	// SkipFindings disables the behavioural-findings detectors.
	SkipFindings bool
	// Workers sizes RunMatrix's capture pool: the matrix's captures are
	// generated and analyzed on this many goroutines (0 = one per CPU,
	// 1 = serial), with identical results for every count. One
	// capture's analysis reads no worker count: its parallelism is the
	// shard count of the sharded ingest tier (internal/ingest).
	Workers int
	// Metrics, when non-nil, receives pipeline instrumentation:
	// per-stage packet counts and drop reasons, the datagram-class and
	// per-criterion verdict tallies (recorded from the result once per
	// analysis), and stage_seconds latency under the bench ledger's
	// stage names. Nil disables collection at zero hot-path cost, and
	// collection never changes analysis output: counters are atomic
	// order-independent sums, identical for serial and sharded runs.
	Metrics *metrics.Registry
	// EvictIdle, when positive, finalizes the pipeline state of streams
	// idle for longer than this: their kept records are inspected,
	// checked, and released, so resident memory is bounded by the
	// active streams. A stream that wakes up again resumes its
	// per-stream contexts. Eviction trades the strict batch guarantee
	// of one DPI pass over the whole stream for bounded memory: output
	// is still deterministic, and differs from batch only when an RTP
	// SSRC first validates in a later chunk than it was sighted in.
	// Zero keeps the strict single-finalization behavior. Every entry
	// point accepts it; the sharded tier runs it on one shard.
	EvictIdle time.Duration
	// Registry selects the protocol-driver set the whole pipeline —
	// DPI extraction, compliance judging, findings observation — runs
	// against. Nil selects the default registry (every driver linked
	// into the binary).
	Registry *proto.Registry
	// Tracer, when non-nil, receives the capture's decision trace:
	// per-stream filter verdicts, Algorithm 1 probe steps, datagram
	// classifications, five-criterion compliance verdicts, lifecycle
	// events, and findings (see internal/obs). Nil (the default)
	// disables tracing at zero hot-path cost, exactly like Metrics,
	// and tracing never changes analysis output. Trace emission
	// happens only at deterministic pipeline points, so the event
	// stream is byte-identical for every shard count. RunMatrix does
	// not trace (its captures are analyzed concurrently and would
	// interleave on one sink); trace single captures.
	Tracer obs.Tracer
	// QoE, when non-nil, runs the header-free QoE estimator over every
	// final-RTC UDP stream (frame rate, bitrate, inter-frame gap
	// jitter, stall heuristic from datagram sizes and timings only; see
	// internal/qoe) and attaches the features to the result. Nil (the
	// default) disables estimation at zero hot-path cost, exactly like
	// Metrics, and estimation never changes analysis output. Features
	// are a pure function of each stream's datagram sequence in capture
	// order, so they are byte-identical for every shard count.
	QoE *qoe.Config
}

func (o Options) engine() *dpi.Engine {
	return &dpi.Engine{MaxOffset: o.MaxOffset, Metrics: o.Metrics, Registry: o.Registry}
}

// CaptureInput is one capture to analyze. It is an alias of
// trace.Input so generated captures convert via Capture.Input() with no
// per-caller construction.
type CaptureInput = trace.Input

// CaptureAnalysis is the result of analyzing one capture.
type CaptureAnalysis struct {
	Label  string
	Filter *filterpipe.Result
	// Stats holds the message and datagram statistics for this capture.
	Stats *report.AppStats
	// Findings lists the behavioural findings detected (§5.3).
	Findings []Finding
	// RTPSSRCs is the set of RTP SSRCs observed, for cross-call
	// analyses like Zoom's fixed-SSRC finding.
	RTPSSRCs map[uint32]bool
	// Bytes is the total raw capture volume (transport payload bytes).
	Bytes int
	// DecodeErrors counts frames that could not be decoded into
	// transport packets (truncated or corrupt captures contain them).
	DecodeErrors int
	// QoE holds the header-free QoE features per RTC stream plus the
	// media-stream summary. Nil unless Options.QoE enabled estimation.
	QoE *qoe.Capture
}

// AnalyzeCapture runs the full pipeline over one in-memory capture by
// feeding the streaming Analyzer frame by frame. The frames are
// referenced, not copied, and each stream's records are dropped at its
// DPI finalization, so the result holds verdicts, not packets. Without
// eviction it equals the batch reference the differential tests keep.
func AnalyzeCapture(in CaptureInput, opts Options) (*CaptureAnalysis, error) {
	a, err := NewAnalyzer(AnalyzerConfig{
		Label:        in.Label,
		LinkType:     in.LinkType,
		CallStart:    in.CallStart,
		CallEnd:      in.CallEnd,
		FramesStable: true,
	}, opts)
	if err != nil {
		return nil, err
	}
	for _, p := range in.Packets {
		if err := a.Feed(p.Timestamp, p.Data); err != nil {
			return nil, err
		}
	}
	return a.Close()
}

// foldPartials folds per-stream partial results into the capture
// analysis in slice order — the deterministic RTC stream order — by
// merging stats, SSRC sets, and findings evidence, then flushing each
// stream's trace span (a no-op when tracing is off). The goroutines
// that produced the partials only buffered; this fold is the single
// deterministic export and merge point every pipeline shares: Close,
// the test-side batch reference, and (through finalize) the cross-shard
// MergeAnalyzers. Under Options.SkipFindings the partials gathered no
// findings evidence, so the capture reports none.
func foldPartials(ca *CaptureAnalysis, partials []*streamPartial) {
	var fctx findingsContext
	for _, p := range partials {
		mergeStats(ca.Stats, p.stats)
		for ssrc := range p.ssrcs {
			ca.RTPSSRCs[ssrc] = true
		}
		fctx.merge(&p.fctx)
		p.span.Flush()
		if p.qoe != nil {
			if ca.QoE == nil {
				ca.QoE = &qoe.Capture{}
			}
			ca.QoE.Streams = append(ca.QoE.Streams, p.qoe.Features(p.key))
		}
	}
	if ca.QoE != nil {
		ca.QoE.Summary = qoe.Summarize(ca.QoE.Streams)
	}
	ca.Findings = fctx.findings()
}

// streamPartial is the analysis outcome of one RTC stream, produced on
// one goroutine and merged into the capture result.
type streamPartial struct {
	stats *report.AppStats
	fctx  findingsContext
	ssrcs map[uint32]bool

	// session judges the stream's messages; its criterion-5 state
	// carries across chunked finalizations. reg is its registry, which
	// also resolves the findings evidence and the trace's protocol
	// names. findings is false under Options.SkipFindings.
	session  *compliance.Session
	reg      *proto.Registry
	findings bool

	// span receives the stream's verdict trace (nil when tracing is
	// off). dgramBase numbers datagrams cumulatively across chunked
	// finalizations.
	span      *obs.Span
	dgramBase int

	// obs is scratch for Registry.Observe: passing the address of a
	// stack local would force a heap allocation per consume call.
	obs proto.Observation

	// qoe accumulates the stream's header-free QoE evidence (nil when
	// estimation is off); key names the stream in the feature vector.
	// The accumulator folds records in arrival order and carries no
	// per-chunk state, so chunked finalization and cross-shard merges
	// leave the features identical to a serial single-chunk run.
	qoe *qoe.Stream
	key string
}

func newStreamPartial(span *obs.Span, key string, opts Options) *streamPartial {
	session := compliance.NewCheckerWith(opts.Registry).NewSession()
	p := &streamPartial{
		stats:    report.NewAppStats(""),
		ssrcs:    make(map[uint32]bool),
		session:  session,
		reg:      session.Checker().Registry(),
		findings: !opts.SkipFindings,
		span:     span,
		key:      key,
	}
	if opts.QoE != nil {
		p.qoe = qoe.NewStream(*opts.QoE)
	}
	return p
}

// consume folds one chunk of DPI results — index-aligned with the
// packet records they came from — into the partial, in one pass: per
// datagram its class, QoE evidence and class findings evidence; per
// message its compliance verdicts (traced when the stream has a span)
// and one Registry.Observe for both the SSRC set and the message
// findings evidence. Both the batch reference (one chunk per stream)
// and the streaming analyzer's chunked finalization go through here.
func (p *streamPartial) consume(recs []flow.Packet, results []dpi.Result) {
	o := &p.obs
	for i, r := range results {
		rec := &recs[i]
		if p.qoe != nil {
			p.qoe.Observe(rec.Timestamp, len(rec.Payload))
		}
		p.stats.AddDatagram(r.Class)
		media := 0
		for _, m := range r.Messages {
			out := p.session.Check(m, rec.Timestamp)
			for _, c := range out {
				p.stats.AddChecked(c)
			}
			if p.span != nil {
				p.traceVerdicts(p.dgramBase+i+1, rec, m, out)
			}
			p.reg.Observe(m, o)
			if o.HasSSRC {
				p.ssrcs[o.SSRC] = true
			}
			if o.MediaMessage {
				media++
			}
			if p.findings {
				p.fctx.message(rec.Dir, o)
			}
		}
		if p.findings {
			p.fctx.datagram(rec, r, media)
		}
	}
	p.dgramBase += len(results)
}

// traceVerdicts records one judged message's verdicts on the stream
// span, with the message's own bytes so a failing criterion can be
// shown against the wire data.
func (p *streamPartial) traceVerdicts(dgram int, rec *flow.Packet, m proto.Message, out []proto.Checked) {
	name := m.Protocol.String()
	if meta, ok := p.reg.Meta(m.Protocol); ok {
		name = meta.Name
	}
	var window []byte
	if end := m.Offset + m.Length; m.Offset >= 0 && end <= len(rec.Payload) {
		window = rec.Payload[m.Offset:end]
	}
	for _, c := range out {
		p.span.Verdict(dgram, rec.Timestamp, name, c.Type.Label,
			int(c.Verdict.Failed), c.Verdict.Reason, m.Offset, window)
	}
}

// FeedBatchSize is how many datagrams every feeding loop hands
// Analyzer.FeedBatch at once: the capture reader below, the sharded
// router's per-shard staging (which the live session feeds), and the
// hot-path benchmark. Each pending record of the reader needs its own
// frame buffer (the ring below), so the batch size bounds the reader's
// resident frame memory at batch × max-frame-size.
const FeedBatchSize = 64

// frameRing holds one reusable frame buffer per batch slot plus the
// pending batch itself. Frames read into a slot stay valid until the
// batch is flushed — FeedBatch copies payload bytes out (into pooled
// arenas) before returning, after which the slots are reused.
type frameRing struct {
	bufs  [FeedBatchSize][]byte
	batch []Datagram
}

func newFrameRing() *frameRing {
	return &frameRing{batch: make([]Datagram, 0, FeedBatchSize)}
}

// slot returns the buffer pointer for the next record to be read into.
func (fr *frameRing) slot() *[]byte { return &fr.bufs[len(fr.batch)] }

// add appends a record read into the current slot and reports whether
// the batch is full and must be flushed.
func (fr *frameRing) add(ts time.Time, frame []byte) bool {
	fr.batch = append(fr.batch, Datagram{Timestamp: ts, Frame: frame})
	return len(fr.batch) == FeedBatchSize
}

// flush feeds the pending batch (a no-op when empty) and resets it.
func (fr *frameRing) flush(sink FrameSink) error {
	if len(fr.batch) == 0 {
		return nil
	}
	err := sink.FeedBatch(fr.batch)
	fr.batch = fr.batch[:0]
	return err
}

// FrameSink consumes timestamped frames in batches and produces the
// capture analysis when closed. The streaming Analyzer and the sharded
// ingest tier (internal/ingest) both implement it, which is what lets
// every capture reader — file, live socket, benchmark — swap one
// concurrency story for the other without touching the reading loop.
// FeedBatch must copy whatever it retains before returning (unless the
// sink was configured with stable frames), exactly like
// Analyzer.FeedBatch.
type FrameSink interface {
	FeedBatch([]Datagram) error
	Close() (*CaptureAnalysis, error)
}

// StreamCapture reads a capture stream — classic pcap or pcapng (see
// pcap.CaptureReader) — and feeds it incrementally through a
// FrameSink: records are decoded into a small ring of reusable frame
// buffers and delivered in batches, so memory holds per-stream state
// instead of the whole file. The sink is created by open with the link
// type of the first frame (the capture's link type when it has none).
// Returns the sink's Close result.
func StreamCapture(r io.Reader, open func(pcap.LinkType) (FrameSink, error)) (*CaptureAnalysis, error) {
	cr, err := pcap.NewCaptureReader(r)
	if err != nil {
		return nil, err
	}
	ring := newFrameRing()
	var sink FrameSink
	for {
		pkt, linkType, err := cr.ReadPacketInto(ring.slot())
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if sink == nil {
			if sink, err = open(linkType); err != nil {
				return nil, err
			}
		}
		if ring.add(pkt.Timestamp, pkt.Data) {
			if err := ring.flush(sink); err != nil {
				return nil, err
			}
		}
	}
	if sink == nil {
		if sink, err = open(cr.LinkType()); err != nil {
			return nil, err
		}
	}
	if err := ring.flush(sink); err != nil {
		return nil, err
	}
	return sink.Close()
}

// AnalyzePCAP analyzes a capture stream with one streaming Analyzer
// through StreamCapture. Buffered payload bytes live in pooled buffers
// (internal/bufpool) that return to the process-wide pool as streams
// are filtered out, evicted, or finalized, and the result holds no
// per-packet records. Each zero bound of the call window defaults to
// the capture span's: a zero callStart to the first frame's timestamp,
// a zero callEnd to the last.
func AnalyzePCAP(r io.Reader, label string, callStart, callEnd time.Time, opts Options) (*CaptureAnalysis, error) {
	cfg := AnalyzerConfig{Label: label, CallStart: callStart, CallEnd: callEnd}
	return StreamCapture(r, func(lt pcap.LinkType) (FrameSink, error) {
		cfg.LinkType = lt
		return NewAnalyzer(cfg, opts)
	})
}

// MatrixAnalysis aggregates a whole experiment matrix.
type MatrixAnalysis struct {
	// Aggregate holds per-app statistics for the report tables.
	Aggregate *report.Aggregate
	// Table1 holds the filter accounting per app.
	Table1 []report.Table1Row
	// Findings lists deduplicated behavioural findings across captures.
	Findings []Finding
	// Captures counts analyzed calls.
	Captures int
}

// RunMatrix generates the experiment matrix and analyzes every capture.
// Capture generation and analysis fan out over Options.Workers
// goroutines (each capture is independent, and each is analyzed on the
// goroutine that generated it); the per-capture results are folded into
// the aggregate in deterministic config order, so the output is
// byte-identical to a serial (Workers=1) run.
func RunMatrix(mopts trace.MatrixOptions, opts Options) (*MatrixAnalysis, error) {
	configs := trace.Matrix(mopts)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	capOpts := opts
	// Matrix captures are analyzed concurrently; their event streams
	// would interleave nondeterministically on one sink, so the matrix
	// never traces. Analyze a single capture to trace it.
	capOpts.Tracer = nil
	mm := newMatrixMetrics(opts.Metrics)
	mm.workers.Set(int64(workers))
	analyses := make([]*CaptureAnalysis, len(configs))
	err := forEachIndexed(len(configs), workers, func(i int) error {
		latency := mm.latency(configs[i])
		start := latency.Start()
		cap, err := trace.Generate(configs[i])
		if err != nil {
			return err
		}
		if configs[i].Impair.Active() {
			cap.Impair.Publish(opts.Metrics, configs[i].Impair.Label())
		}
		ca, err := AnalyzeCapture(cap.Input(), capOpts)
		if err != nil {
			return err
		}
		latency.ObserveSince(start)
		analyses[i] = ca
		return nil
	})
	if err != nil {
		return nil, err
	}

	ma := &MatrixAnalysis{Aggregate: report.NewAggregateWith(opts.Registry)}
	rows := make(map[string]*report.Table1Row)
	var rowOrder []string
	// Cross-call SSRC sets per app+network for the Zoom finding.
	ssrcSets := make(map[string][]map[uint32]bool)
	var allFindings []Finding

	for i, cfg := range configs {
		ca := analyses[i]
		ma.Captures++

		// Fold stats into the aggregate.
		app := ma.Aggregate.App(string(cfg.App))
		mergeStats(app, ca.Stats)

		// Table 1 accounting.
		row, ok := rows[string(cfg.App)]
		if !ok {
			row = &report.Table1Row{App: string(cfg.App)}
			rows[string(cfg.App)] = row
			rowOrder = append(rowOrder, string(cfg.App))
		}
		addCounts(row, ca)

		key := fmt.Sprintf("%s/%s", cfg.App, cfg.Network)
		ssrcSets[key] = append(ssrcSets[key], ca.RTPSSRCs)
		for _, f := range ca.Findings {
			f.App = string(cfg.App)
			allFindings = append(allFindings, f)
		}
	}
	for _, name := range rowOrder {
		ma.Table1 = append(ma.Table1, *rows[name])
	}
	allFindings = append(allFindings, detectSSRCReuse(ssrcSets)...)
	ma.Findings = dedupFindings(allFindings)
	return ma, nil
}

func mergeStats(dst, src *report.AppStats) {
	for fam, ps := range src.ByProtocol {
		d := dst.ByProtocol[fam]
		if d == nil {
			d = &report.ProtoStat{}
			dst.ByProtocol[fam] = d
		}
		d.Messages += ps.Messages
		d.Compliant += ps.Compliant
		d.Bytes += ps.Bytes
	}
	for key, ts := range src.Types {
		d := dst.Types[key]
		if d == nil {
			d = &report.TypeStat{Reasons: make(map[string]int)}
			dst.Types[key] = d
		}
		d.Total += ts.Total
		d.NonCompliant += ts.NonCompliant
		for r, n := range ts.Reasons {
			d.Reasons[r] += n
		}
	}
	for class, n := range src.Datagrams {
		dst.Datagrams[class] += n
	}
	for crit, n := range src.Violations {
		dst.Violations[crit] += n
	}
}

func addCounts(row *report.Table1Row, ca *CaptureAnalysis) {
	f := ca.Filter
	row.VolumeBytes += ca.Bytes
	addC := func(dst *flow.Counts, src flow.Counts) {
		dst.Streams += src.Streams
		dst.Packets += src.Packets
		dst.Bytes += src.Bytes
	}
	addC(&row.RawUDP, f.RawUDP)
	addC(&row.RawTCP, f.RawTCP)
	addC(&row.Stage1UDP, f.Stage1UDP)
	addC(&row.Stage1TCP, f.Stage1TCP)
	addC(&row.Stage2UDP, f.Stage2UDP)
	addC(&row.Stage2TCP, f.Stage2TCP)
	addC(&row.RTCUDP, f.RTCUDP)
	addC(&row.RTCTCP, f.RTCTCP)
}
