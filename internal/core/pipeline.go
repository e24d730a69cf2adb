// Package core wires the measurement framework together: packet
// decoding, stream grouping, the two-stage unrelated-traffic filter,
// DPI message extraction, five-criterion compliance checking, and
// aggregation into the paper's metrics. It is the engine behind the
// public rtcc API, the command-line tools, and the benchmarks.
package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/filterpipe"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
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
	// Workers bounds the analysis worker pool. RunMatrix fans capture
	// generation and analysis out over this many goroutines, and
	// AnalyzeCapture (when called directly) inspects streams in
	// parallel. Zero selects one worker per CPU; 1 selects the serial
	// path. Results are identical for every worker count: partial
	// results are folded back in deterministic input order.
	Workers int
	// Metrics, when non-nil, receives pipeline instrumentation:
	// per-stage packet counts, drop reasons, DPI classification and
	// latency, per-criterion compliance verdicts, and worker-pool
	// timing. Nil disables collection at zero hot-path cost, and
	// collection never changes analysis output: counters are atomic
	// order-independent sums, identical for serial and parallel runs.
	Metrics *metrics.Registry
	// KeepPayloads makes AnalyzePCAP retain per-packet payload records
	// in the result (as AnalyzeCapture always does). Off by default:
	// the streaming reader then holds payload bytes only for
	// provisionally-RTC UDP streams until DPI consumes them. Turn it on
	// when the caller reads Filter.RTC[i].Packets afterwards.
	KeepPayloads bool
	// EvictIdle, when positive, finalizes the pipeline state of streams
	// idle for longer than this: their buffered payloads are inspected,
	// checked, and released, so resident memory is bounded by the
	// active streams. A stream that wakes up again resumes its
	// per-stream contexts. Eviction trades the strict batch guarantee
	// of one DPI pass over the whole stream for bounded memory: output
	// is still deterministic, and differs from batch only when an RTP
	// SSRC first validates in a later chunk than it was sighted in.
	// Zero keeps the strict single-finalization behavior. NewAnalyzer
	// rejects it with AnalyzerConfig.KeepPayloads, which AnalyzeCapture
	// always sets.
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
	// stream is byte-identical for every worker count. RunMatrix does
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
	// order, so they are byte-identical for every worker and shard
	// count.
	QoE *qoe.Config
}

func (o Options) engine() *dpi.Engine {
	e := dpi.NewEngine()
	if o.MaxOffset > 0 {
		e.MaxOffset = o.MaxOffset
	}
	e.Metrics = o.Metrics
	e.Registry = o.Registry
	return e
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
// referenced, not copied, and per-packet records are retained, so the
// result is identical to the historical batch pipeline (which
// BatchAnalyzeCapture preserves as the differential-test reference).
func AnalyzeCapture(in CaptureInput, opts Options) (*CaptureAnalysis, error) {
	a, err := NewAnalyzer(AnalyzerConfig{
		Label:        in.Label,
		LinkType:     in.LinkType,
		CallStart:    in.CallStart,
		CallEnd:      in.CallEnd,
		KeepPayloads: true,
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

// BatchAnalyzeCapture is the original whole-capture pipeline: buffer
// everything, then filter, inspect, and check. It is retained as the
// reference implementation the streaming Analyzer is differentially
// tested against, and as the baseline for the memory benchmarks.
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

	cm := newCaptureMetrics(opts.Metrics, in.Label)
	cm.captures.Inc()
	cm.frames.Add(uint64(len(in.Packets)))
	cm.decodeErrors.Add(uint64(decodeErrs))
	cm.packets.Add(uint64(len(in.Packets) - decodeErrs))
	cm.workers.Set(int64(opts.workers()))

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
	// between streams, so streams fan out over the worker pool; the
	// per-stream partial results are folded back in stream order, which
	// makes the output identical to the serial path for any worker
	// count.
	var udp []*flow.Stream
	for _, s := range fres.RTC {
		if s.Key.Proto == layers.IPProtocolUDP {
			udp = append(udp, s)
		}
	}
	cm.rtcStreams.Add(uint64(len(udp)))
	partials := make([]*streamPartial, len(udp))
	forEachIndexed(len(udp), opts.workers(), func(i int) error {
		start := cm.streamSeconds.Start()
		partials[i] = analyzeStream(udp[i], opts)
		cm.streamSeconds.ObserveSince(start)
		return nil
	})

	foldStart := cm.foldSeconds.Start()
	foldPartials(ca, partials, opts.SkipFindings)
	cm.foldSeconds.ObserveSince(foldStart)
	return ca, nil
}

// foldPartials folds per-stream partial results into the capture
// analysis in slice order — the deterministic RTC stream order — by
// merging stats, SSRC sets, and findings evidence, then flushing each
// stream's trace span (a no-op when tracing is off). The workers that
// produced the partials only buffered; this fold is the single
// deterministic export and merge point every pipeline shares: Close,
// the batch reference path, and (through finalize) the cross-shard
// MergeAnalyzers.
func foldPartials(ca *CaptureAnalysis, partials []*streamPartial, skipFindings bool) {
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
	if !skipFindings {
		ca.Findings = fctx.findings()
	}
}

// streamPartial is the analysis outcome of one RTC stream, produced by
// one worker and merged into the capture result.
type streamPartial struct {
	stats *report.AppStats
	fctx  findingsContext
	ssrcs map[uint32]bool

	// span receives the stream's verdict trace (nil when tracing is
	// off). dgramBase numbers datagrams cumulatively across chunked
	// finalizations; curDgram and curPayload hand the Session.Trace
	// hook its datagram context while consume iterates.
	span       *obs.Span
	dgramBase  int
	curDgram   int
	curPayload []byte

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

func newStreamPartial(span *obs.Span, key string, qcfg *qoe.Config) *streamPartial {
	p := &streamPartial{
		stats: report.NewAppStats(""),
		ssrcs: make(map[uint32]bool),
		span:  span,
		key:   key,
	}
	if qcfg != nil {
		p.qoe = qoe.NewStream(*qcfg)
	}
	return p
}

// consume folds one chunk of DPI results — index-aligned with the
// packet records they came from — into the partial: datagram classes,
// compliance verdicts, observed SSRCs, and findings evidence. Both the
// batch path (one chunk per stream) and the streaming analyzer's
// chunked finalization go through here.
func (p *streamPartial) consume(recs []flow.Packet, results []dpi.Result, session *compliance.Session, skipFindings bool) {
	reg := session.Checker().Registry()
	p.fctx.reg = reg
	if p.span != nil && session.Trace == nil {
		session.Trace = p.traceVerdict
	}
	o := &p.obs
	for i, r := range results {
		p.curDgram = p.dgramBase + i + 1
		p.curPayload = recs[i].Payload
		if p.qoe != nil {
			p.qoe.Observe(recs[i].Timestamp, len(recs[i].Payload))
		}
		p.stats.AddDatagram(r.Class)
		for _, m := range r.Messages {
			for _, c := range session.Check(m, recs[i].Timestamp) {
				p.stats.AddChecked(c)
			}
			reg.Observe(m, o)
			if o.HasSSRC {
				p.ssrcs[o.SSRC] = true
			}
		}
	}
	p.dgramBase += len(results)
	p.curPayload = nil
	if !skipFindings {
		p.fctx.scanStream(recs, results)
	}
}

// traceVerdict is the Session.Trace hook: it forwards every judged
// message's verdicts to the stream span with the datagram context the
// consume loop maintains, including the message's own bytes so a
// failing criterion can be shown against the wire data.
func (p *streamPartial) traceVerdict(m proto.Message, ts time.Time, out []proto.Checked) {
	name := m.Protocol.String()
	if meta, ok := p.fctx.reg.Meta(m.Protocol); ok {
		name = meta.Name
	}
	var window []byte
	if end := m.Offset + m.Length; m.Offset >= 0 && end <= len(p.curPayload) {
		window = p.curPayload[m.Offset:end]
	}
	for _, c := range out {
		p.span.Verdict(p.curDgram, ts, name, c.Type.Label,
			int(c.Verdict.Failed), c.Verdict.Reason, m.Offset, window)
	}
}

// analyzeStream runs DPI extraction and compliance checking over one
// UDP RTC stream with fresh per-stream state: its own engine, checker,
// session, and findings evidence. The compliance Checker's only
// cross-stream field is write-only during checking, so a per-stream
// checker yields verdicts identical to a capture-shared one.
func analyzeStream(s *flow.Stream, opts Options) *streamPartial {
	engine := opts.engine()
	checker := compliance.NewCheckerWith(opts.Registry)
	checker.SetMetrics(opts.Metrics)
	p := newStreamPartial(nil, s.Key.String(), opts.QoE)
	payloads := make([][]byte, len(s.Packets))
	for i, pkt := range s.Packets {
		payloads[i] = pkt.Payload
	}
	results := engine.InspectStream(payloads)
	p.consume(s.Packets, results, checker.NewSession(), opts.SkipFindings)
	return p
}

// feedBatchSize is how many records AnalyzePCAP accumulates before
// handing them to Analyzer.FeedBatch. Each pending record needs its own
// frame buffer (the ring below), so the batch size bounds the reader's
// resident frame memory at batch × max-frame-size.
const feedBatchSize = 64

// frameRing holds one reusable frame buffer per batch slot plus the
// pending batch itself. Frames read into a slot stay valid until the
// batch is flushed — FeedBatch copies payload bytes out (into pooled
// arenas) before returning, after which the slots are reused.
type frameRing struct {
	bufs  [feedBatchSize][]byte
	batch []Datagram
}

func newFrameRing() *frameRing {
	return &frameRing{batch: make([]Datagram, 0, feedBatchSize)}
}

// slot returns the buffer pointer for the next record to be read into.
func (fr *frameRing) slot() *[]byte { return &fr.bufs[len(fr.batch)] }

// add appends a record read into the current slot and reports whether
// the batch is full and must be flushed.
func (fr *frameRing) add(ts time.Time, frame []byte) bool {
	fr.batch = append(fr.batch, Datagram{Timestamp: ts, Frame: frame})
	return len(fr.batch) == feedBatchSize
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
// through StreamCapture. Unless KeepPayloads is set, retained payload
// bytes live in pooled buffers (internal/bufpool) that return to the
// process-wide pool as streams are filtered out, evicted, or
// finalized. A zero callStart defaults the call window to the
// capture's span.
func AnalyzePCAP(r io.Reader, label string, callStart, callEnd time.Time, opts Options) (*CaptureAnalysis, error) {
	cfg := AnalyzerConfig{
		Label:               label,
		CallStart:           callStart,
		CallEnd:             callEnd,
		DefaultWindowToSpan: true,
		KeepPayloads:        opts.KeepPayloads,
	}
	if !opts.KeepPayloads {
		cfg.Pool = bufpool.Global()
	}
	return StreamCapture(r, func(lt pcap.LinkType) (FrameSink, error) {
		cfg.LinkType = lt
		return NewAnalyzer(cfg, opts)
	})
}

// BatchAnalyzePCAP is the original read-everything-then-analyze path,
// retained as the baseline for the streaming memory benchmarks.
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
// goroutines (each capture is independent); the per-capture results are
// folded into the aggregate in deterministic config order, so the
// output is byte-identical to a serial (Workers=1) run.
func RunMatrix(mopts trace.MatrixOptions, opts Options) (*MatrixAnalysis, error) {
	configs := trace.Matrix(mopts)

	// When the matrix-level pool is active, each worker owns a whole
	// capture; the per-capture stream pool is disabled so the total
	// concurrency stays bounded by the one pool.
	workers := opts.workers()
	capOpts := opts
	if workers > 1 {
		capOpts.Workers = 1
	}
	// Matrix captures are analyzed concurrently; their event streams
	// would interleave nondeterministically on one sink, so the matrix
	// never traces. Analyze a single capture to trace it.
	capOpts.Tracer = nil
	mm := newMatrixMetrics(opts.Metrics)
	mm.workers.Set(int64(workers))
	analyses := make([]*CaptureAnalysis, len(configs))
	err := forEachIndexed(len(configs), workers, func(i int) error {
		captures, latency := mm.capture(configs[i])
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
		captures.Inc()
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
