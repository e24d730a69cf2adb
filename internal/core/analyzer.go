package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/filterpipe"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/report"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// AnalyzerConfig parameterizes one streaming analysis.
type AnalyzerConfig struct {
	// Label names the application (or capture) in reports.
	Label string
	// LinkType describes the fed frames.
	LinkType pcap.LinkType
	// CallStart and CallEnd delimit the annotated call window. Each
	// zero bound defaults to the fed span's: a zero CallStart to the
	// first fed timestamp, a zero CallEnd to the last. A defaulted
	// bound is known only at Close, so until Close only
	// window-independent filter rules run online. Close fails when a
	// defaulted window ends before it starts.
	CallStart, CallEnd time.Time
	// DefaultWindowToSpan is ignored: each zero bound always defaults
	// to the fed span's.
	//
	// Deprecated: ignored. Its last setters are perfbench/pcapmedia.go
	// and perfbench/mirror.go in the nested benchmark module; the field
	// goes once those files stop setting it.
	DefaultWindowToSpan bool
	// KeepPayloads is ignored: results carry no per-packet records. A
	// UDP stream's records live from admission until its DPI
	// finalization or its removal, and TCP records are never kept.
	//
	// Deprecated: ignored. Its last setter is perfbench/matrix.go in
	// the nested benchmark module; the field goes once that file stops
	// setting it.
	KeepPayloads bool
	// FramesStable promises that fed frame buffers stay valid and
	// unmodified for the Analyzer's lifetime, letting it reference
	// payload bytes instead of copying them. Otherwise every kept
	// payload is copied into its stream's arena in the process-wide
	// buffer pool (DESIGN.md §14). Readers that reuse their frame
	// buffer must leave it false.
	FramesStable bool
	// Pool is ignored: kept payloads that need a copy always go to the
	// process-wide buffer pool.
	//
	// Deprecated: ignored. Its last setter is perfbench/pcapmedia.go in
	// the nested benchmark module; the field goes once that file stops
	// setting it.
	Pool *bufpool.Pool
	// ExternalSeq makes FeedBatch take each datagram's arrival index
	// from its Seq field instead of the Analyzer's own feed counter.
	// The sharded ingest router (internal/ingest) stamps a
	// capture-global sequence on every datagram before fanning out, so
	// each shard records where its streams sit in the global arrival
	// order and MergeAnalyzers can rebuild the serial stream-table
	// order exactly. Feed is a misuse error under ExternalSeq: it
	// carries no Seq to consume.
	ExternalSeq bool
}

// streamState is the Analyzer's per-stream pipeline state beyond what
// flow.Stream summarizes.
type streamState struct {
	s *flow.Stream
	// removed marks a provisional filter verdict. Every online rule is
	// monotone — once true it stays true through Close — so a removed
	// stream's payloads are dropped immediately and never inspected.
	removed bool
	// sni is the first TLS ClientHello SNI seen on a TCP stream,
	// extracted at feed time so Close never needs TCP payloads.
	sni   string
	sniOK bool
	// insp is the incremental DPI state for provisionally-RTC UDP
	// streams; it reads the stream's records (s.Packets) in place.
	insp *dpi.StreamInspector
	// partial carries the compliance, findings and QoE state across
	// chunked finalizations (eviction mode).
	partial *streamPartial
	// span is the stream's decision-trace span (nil when tracing is
	// off); it buffers events until the analyzer flushes it at a
	// deterministic point.
	span *obs.Span
	// arena holds the stream's pooled payload copies (nil under
	// FramesStable); released whenever the stream's records are
	// dropped.
	arena *bufpool.Arena
	// prev/next link the stream into the analyzer's intrusive recency
	// list (least-recent first); inList marks membership (false while
	// evicted). Embedding the links keeps stream wake-ups
	// allocation-free — container/list would allocate an Element per
	// re-insertion.
	prev, next *streamState
	inList     bool
	// checkSeq is the Analyzer.feedSeq value at the stream's last
	// per-feed maintenance (recency bump, online-filter re-check).
	// Feed bumps feedSeq per packet, FeedBatch per batch, so batching
	// amortizes that maintenance to once per stream per batch — an
	// output-neutral change, because every online filter rule is
	// monotone and eviction/removal timing only moves chunk
	// boundaries.
	checkSeq uint64
	// birth is the arrival index of the datagram that created this
	// stream. Under ExternalSeq it is capture-global, which is what
	// lets MergeAnalyzers sort shard streams back into the exact
	// insertion order a serial analyzer's table would hold.
	birth uint64
}

// Analyzer is the incremental analysis pipeline: Feed advances packet
// decoding, flow grouping and online filtering per frame, and keeps a
// record of each datagram of a provisionally-RTC UDP stream, over
// which the stream's DPI inspector runs Algorithm 1's pass 1 a full
// batch of 64 records at a time; pass 2, with the rest of pass 1, runs
// when a stream's records are finalized, at idle eviction or at Close.
// Close reconciles the online filter verdicts against the full
// two-stage filter and assembles the CaptureAnalysis. Without eviction
// the result equals the test-side batch reference's; the offline entry
// points are thin wrappers over this type. Results carry verdicts, not
// packets: no stream in a result holds per-packet records.
type Analyzer struct {
	cfg  AnalyzerConfig
	opts Options

	table  *flow.Table
	states map[flow.Key]*streamState
	// recHead..recTail is the intrusive recency list ordering live
	// (non-evicted) streams by last activity, least-recent first.
	recHead, recTail *streamState
	engine           *dpi.Engine

	// lastKey/lastSt memoize the most recently fed stream: RTC traffic
	// arrives in per-stream bursts, so consecutive datagrams usually hit
	// the same stream and skip both map lookups.
	lastKey flow.Key
	lastSt  *streamState
	// feedSeq numbers feed calls (one Feed or one FeedBatch each); see
	// streamState.checkSeq.
	feedSeq uint64

	frames     int
	decodeErrs int
	// firstTS and lastTS are the first and last fed timestamps
	// (positional, matching the batch window-defaulting convention).
	firstTS, lastTS time.Time
	// arrival numbers fed frames 1..n (or mirrors Datagram.Seq under
	// ExternalSeq); firstSeq/lastSeq are the arrival indices behind
	// firstTS/lastTS, which is how MergeAnalyzers picks the globally
	// first and last timestamps across shards.
	arrival           uint64
	firstSeq, lastSeq uint64

	// ev is the §3.2 filter evidence gathered so far, over table. Its
	// window stays unknown until Close when a bound is zero.
	ev *filterpipe.Evidence

	active, peak int
	closed       bool

	// pkt is decode scratch: Feed is single-goroutine, so one reusable
	// Packet removes the per-frame layer allocations.
	pkt layers.Packet
	// one is Feed's one-element batch, a field so that Feed hands
	// FeedBatch a slice without allocating one per frame.
	one [1]Datagram

	// trace is the capture's decision-trace context (nil when
	// Options.Tracer is nil). All emission happens from Feed or the
	// deterministic parts of Close, never from the stream fan-out.
	trace *obs.Pipeline

	am analyzerMetrics
}

// NewAnalyzer validates the configuration and returns an empty
// Analyzer.
func NewAnalyzer(cfg AnalyzerConfig, opts Options) (*Analyzer, error) {
	bounded := !cfg.CallStart.IsZero() && !cfg.CallEnd.IsZero()
	if bounded && cfg.CallEnd.Before(cfg.CallStart) {
		return nil, errInvertedWindow
	}
	a := &Analyzer{
		cfg:    cfg,
		opts:   opts,
		table:  flow.NewTable(),
		states: make(map[flow.Key]*streamState),
		engine: opts.engine(),
		trace:  obs.New(opts.Tracer, cfg.Label, obs.Sampling{}, opts.Metrics),
		am:     newAnalyzerMetrics(opts.Metrics, cfg.Label),
	}
	a.ev = filterpipe.NewEvidence(a.table)
	if bounded {
		a.ev.SetWindow(cfg.CallStart, cfg.CallEnd)
	}
	return a, nil
}

var errInvertedWindow = errors.New("core: call window end precedes start")

// Feed advances the pipeline by one captured frame: a one-element
// FeedBatch. Decode failures are tolerated and counted, exactly as in
// the batch path; the returned error is reserved for misuse (feeding a
// closed Analyzer, or an ExternalSeq one).
func (a *Analyzer) Feed(ts time.Time, frame []byte) error {
	if a.cfg.ExternalSeq {
		return errors.New("core: Feed requires FeedBatch under ExternalSeq (no Seq to consume)")
	}
	a.one[0] = Datagram{Timestamp: ts, Frame: frame}
	return a.FeedBatch(a.one[:])
}

// Datagram is one captured frame with its timestamp, the unit of
// FeedBatch.
type Datagram struct {
	Timestamp time.Time
	Frame     []byte
	// Seq is the datagram's capture-global arrival index, consumed
	// only by analyzers configured with ExternalSeq (the sharded
	// ingest router stamps it before fanning out). Plain FeedBatch
	// callers leave it zero; it is ignored then.
	Seq uint64
}

// FeedBatch advances the pipeline over a slice of frames, amortizing
// the per-call overhead (the core.feed latency probe, the eviction sweep,
// and the per-stream bookkeeping) over the batch and giving the
// same-stream fast path its best hit rate. Output is identical to
// feeding the datagrams one at a time — batching changes scheduling,
// never results.
//
// Unless FramesStable is set, every payload the analyzer keeps is
// copied into the pool's arenas before FeedBatch returns, so the
// caller may reuse the frame buffers — but not before the call
// returns, which is what lets readers batch frames in a reused ring.
func (a *Analyzer) FeedBatch(batch []Datagram) error {
	if a.closed {
		return errors.New("core: Feed after Close")
	}
	if len(batch) == 0 {
		return nil
	}
	start := a.am.feed.Start()
	a.feedSeq++
	for i := range batch {
		seq := batch[i].Seq
		if !a.cfg.ExternalSeq {
			a.arrival++
			seq = a.arrival
		}
		a.feedOne(batch[i].Timestamp, batch[i].Frame, seq)
	}
	if a.opts.EvictIdle > 0 {
		a.evictIdle(batch[len(batch)-1].Timestamp)
	}
	a.am.feed.ObserveSince(start)
	return nil
}

// feedOne is the shared per-frame pipeline step behind Feed and
// FeedBatch: decode, flow grouping, online filtering, and handing the
// stream's records to its DPI inspector, which scans pass 1 over each
// full batch of 64 (so a FeedBatch call pays that scan); pass 2 runs
// at the stream's finalization.
func (a *Analyzer) feedOne(ts time.Time, frame []byte, seq uint64) {
	if a.frames == 0 {
		a.firstTS = ts
		a.firstSeq = seq
	}
	a.frames++
	a.lastTS = ts
	a.lastSeq = seq

	pkt := &a.pkt
	if err := layers.DecodeInto(pkt, a.cfg.LinkType, frame); err != nil {
		a.decodeErrs++
		return
	}
	proto, srcPort, dstPort := pkt.Transport()
	if proto == 0 {
		return
	}
	src := flow.Endpoint{Addr: pkt.Src(), Port: srcPort}
	dst := flow.Endpoint{Addr: pkt.Dst(), Port: dstPort}
	key := flow.KeyFor(proto, src, dst)
	var st *streamState
	if a.lastSt != nil && key == a.lastKey {
		st = a.lastSt
	} else if st = a.states[key]; st == nil {
		st = &streamState{s: a.table.Open(key, ts), birth: seq}
		a.states[key] = st
	}
	a.lastKey, a.lastSt = key, st
	s := st.s

	// Retention: only provisionally-RTC UDP streams need their records
	// (payload for DPI, timestamp for compliance, direction for
	// findings), and only until their DPI finalization.
	keep := proto == layers.IPProtocolUDP && !st.removed
	if keep && !a.cfg.FramesStable {
		if st.arena == nil {
			st.arena = bufpool.Global().NewArena()
		}
		pkt.Payload = st.arena.Append(pkt.Payload)
	}
	dir := flow.DirAToB
	if key.A != src {
		dir = flow.DirBToA
	}
	a.table.AddToStream(s, ts, dir, dst, pkt.Payload, keep)

	a.ev.Observe(ts, key)
	if proto == layers.IPProtocolTCP && !st.sniOK && len(pkt.Payload) > 0 {
		if sni, err := tlsinspect.SNI(pkt.Payload); err == nil {
			st.sni, st.sniOK = sni, true
		}
	}

	// Per-feed maintenance, once per stream per Feed/FeedBatch call:
	// recency ordering and the online-filter re-check. Both are
	// output-neutral at any granularity (filter rules are monotone,
	// removal and eviction timing only move chunk boundaries), so a
	// batch pays them once per touched stream instead of per packet.
	if st.checkSeq != a.feedSeq {
		st.checkSeq = a.feedSeq
		if st.inList {
			a.recencyMoveToBack(st)
		} else {
			// A new stream, or an evicted one waking up: it (re)joins
			// the live set and its next finalization continues the
			// persisted contexts.
			a.recencyPushBack(st)
			a.streamLive(+1)
		}
		// The online filter: a rule the stream fails on partial
		// evidence still fails it at Close (filterpipe.Evidence), so
		// its records can go now.
		if !st.removed {
			if rule, _ := a.ev.Check(s, st.sni); rule != "" {
				st.removed = true
				st.insp = nil
				st.dropRecords()
			}
		}
	}
	if proto == layers.IPProtocolUDP && !st.removed {
		if st.insp == nil {
			st.insp = a.engine.NewStreamInspector()
			if a.trace != nil {
				st.span = a.trace.StreamSpan(key.String())
				st.insp.SetSpan(st.span)
			}
		}
		st.insp.Feed(s.Packets)
	}
}

// dropRecords drops the stream's records and returns their payload
// copies to the pool: nothing references them once the stream is
// removed or finished, since verdicts and trace windows copy the bytes
// they keep.
func (st *streamState) dropRecords() {
	st.s.Packets = nil
	if st.arena != nil {
		st.arena.Release()
		st.arena = nil
	}
}

// recencyPushBack appends st at the most-recent end.
func (a *Analyzer) recencyPushBack(st *streamState) {
	st.prev = a.recTail
	st.next = nil
	if a.recTail != nil {
		a.recTail.next = st
	} else {
		a.recHead = st
	}
	a.recTail = st
	st.inList = true
}

// recencyRemove unlinks st from the recency list.
func (a *Analyzer) recencyRemove(st *streamState) {
	if st.prev != nil {
		st.prev.next = st.next
	} else {
		a.recHead = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else {
		a.recTail = st.prev
	}
	st.prev, st.next = nil, nil
	st.inList = false
}

// recencyMoveToBack marks st most recent.
func (a *Analyzer) recencyMoveToBack(st *streamState) {
	if a.recTail == st {
		return
	}
	a.recencyRemove(st)
	a.recencyPushBack(st)
}

// streamLive adjusts the live-stream accounting and gauges.
func (a *Analyzer) streamLive(delta int) {
	a.active += delta
	a.am.active.Set(int64(a.active))
	if a.active > a.peak {
		a.peak = a.active
		a.am.activePeak.Set(int64(a.peak))
	}
}

// evictIdle finalizes and evicts streams idle past the configured
// threshold, walking the recency list from its least-recent end.
func (a *Analyzer) evictIdle(now time.Time) {
	for st := a.recHead; st != nil; {
		if now.Sub(st.s.LastSeen) <= a.opts.EvictIdle {
			break
		}
		next := st.next
		a.recencyRemove(st)
		if a.trace != nil {
			a.trace.StreamEvicted(st.s.Key.String())
		}
		a.finalizeChunk(st)
		a.streamLive(-1)
		a.am.evicted.Inc()
		st = next
	}
}

// finalizeChunk runs DPI pass 2, compliance, and findings over a
// stream's records and releases them. The per-stream contexts persist
// in the state, so a later chunk continues seamlessly.
func (a *Analyzer) finalizeChunk(st *streamState) {
	s := st.s
	// Only a provisionally-RTC UDP stream keeps records.
	if len(s.Packets) > 0 {
		a.consumeChunk(st)
		// Eviction happens during the single-goroutine Feed, so flushing
		// here is a deterministic export point for the chunk's events.
		st.span.Flush()
	}
	// The records go; their array stays for the next chunk.
	clear(s.Packets)
	s.Packets = s.Packets[:0]
	if st.arena != nil {
		// Everything in the chunk has been consumed (verdicts and trace
		// windows copy the bytes they keep); the payload copies go back
		// to the pool. The arena stays usable for a wake-up.
		st.arena.Release()
	}
}

// consumeChunk is one stream chunk's DPI sweep and compliance pass, the
// step both an evicted chunk and a final-RTC stream at Close run: it
// creates the stream's partial on first use, then, if the stream holds
// records, finalizes them (dpi.finalize) and folds the results into
// the partial (compliance.check).
func (a *Analyzer) consumeChunk(st *streamState) {
	if st.partial == nil {
		st.partial = newStreamPartial(st.span, st.s.Key.String(), a.opts)
	}
	recs := st.s.Packets
	if len(recs) == 0 {
		return
	}
	start := a.am.finalize.Start()
	results := st.insp.Finalize(recs)
	a.am.finalize.ObserveSince(start)
	start = a.am.check.Start()
	st.partial.consume(recs, results)
	a.am.check.ObserveSince(start)
}

// ErrNoDecodable is the error Close wraps when frames were fed but none
// decoded to a transport packet: a capture (or a daemon epoch) of
// nothing but malformed or non-IP traffic.
var ErrNoDecodable = errors.New("core: no decodable transport packets")

// Close reconciles the online verdicts against the full two-stage
// filter and assembles the capture analysis. The filter re-judges every
// stream from its summaries (plus the feed-time SNI), so provisional
// admissions that turn out wrong are corrected here — their DPI state
// is discarded and counted — and the result matches the batch pipeline.
func (a *Analyzer) Close() (*CaptureAnalysis, error) {
	if a.closed {
		return nil, errors.New("core: Close called twice")
	}
	a.closed = true
	return a.finalize(1)
}

// finalize is Close without the reuse guard: the full two-stage filter
// over the accumulated table, reconciliation, the per-stream
// finalization fanned out over workers goroutines, and the
// deterministic fold. Close runs it on one goroutine; MergeAnalyzers
// runs it over a synthetic analyzer holding the union of N shards'
// state with one goroutine per shard, which is why sharded output is
// byte-identical to serial by construction — it is literally this code
// path either way.
func (a *Analyzer) finalize(workers int) (*CaptureAnalysis, error) {
	start := a.am.close.Start()
	callStart, callEnd := a.cfg.CallStart, a.cfg.CallEnd
	if a.frames > 0 {
		if callStart.IsZero() {
			callStart = a.firstTS
		}
		if callEnd.IsZero() {
			callEnd = a.lastTS
		}
		if a.table.Len() == 0 {
			return nil, fmt.Errorf("%w (%d frames, %d decode errors)", ErrNoDecodable, a.frames, a.decodeErrs)
		}
		if callEnd.Before(callStart) {
			return nil, errInvertedWindow
		}
	}

	filterStart := a.am.filter.Start()
	fres := filterpipe.RunWithSNI(a.table, filterpipe.Config{
		CallStart: callStart,
		CallEnd:   callEnd,
		Metrics:   a.opts.Metrics,
		Trace:     a.trace,
	}, func(s *flow.Stream) (string, bool) {
		st := a.states[s.Key]
		if st == nil {
			return "", false
		}
		return st.sni, st.sniOK
	})
	a.am.filter.ObserveSince(filterStart)

	ca := &CaptureAnalysis{
		Label:        a.cfg.Label,
		Filter:       fres,
		Stats:        report.NewAppStats(a.cfg.Label),
		RTPSSRCs:     make(map[uint32]bool),
		DecodeErrors: a.decodeErrs,
	}
	for _, s := range a.table.Streams() {
		ca.Bytes += s.Bytes
	}

	// Reconciliation: streams admitted provisionally (DPI state built)
	// that the full filter removed. Their pipeline state is discarded —
	// monotonicity guarantees the reverse (provisionally removed but
	// finally RTC) cannot happen. The trace records only the final
	// verdict (the filter's stream-filtered event): whether a removed
	// stream was admitted provisionally depends on feed batching and,
	// on the sharded tier, on which shard saw which evidence, so tracing
	// it would make the export differ between shard counts.
	for _, s := range fres.RemovedStreams {
		st := a.states[s.Key]
		if st == nil || st.removed || s.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		if st.insp != nil || st.partial != nil {
			a.am.reclassified.Inc()
			st.insp = nil
			st.partial = nil
			st.span = nil
		}
		st.dropRecords()
	}

	// Finalize the surviving UDP RTC streams, fanned out over workers,
	// and fold in deterministic RTC order.
	var udp []*flow.Stream
	for _, s := range fres.RTC {
		if s.Key.Proto == layers.IPProtocolUDP {
			udp = append(udp, s)
		}
	}
	partials := make([]*streamPartial, len(udp))
	forEachIndexed(len(udp), workers, func(i int) error {
		partials[i] = a.finishStream(udp[i])
		return nil
	})
	foldPartials(ca, partials)

	if a.trace != nil {
		for _, f := range ca.Findings {
			a.trace.FindingEmitted(f.Kind, f.Detail)
		}
		a.trace.CaptureEnd(fmt.Sprintf("%d frames, %d decode errors", a.frames, a.decodeErrs))
	}

	recordCapture(a.opts.Metrics, ca, a.frames)
	a.active = 0
	a.am.active.Set(0)
	a.am.close.ObserveSince(start)
	return ca, nil
}

// finishStream completes one final-RTC UDP stream: last DPI chunk,
// compliance, findings. Safe to run concurrently across streams — all
// touched state is per-stream (the shared engine and states map are
// read-only here, and the stage histograms are atomic).
func (a *Analyzer) finishStream(s *flow.Stream) *streamPartial {
	st := a.states[s.Key]
	a.consumeChunk(st)
	// The shared pool is safe to return to from concurrent workers.
	st.dropRecords()
	return st.partial
}
