package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/compliance"
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
	// CallStart and CallEnd delimit the annotated call window.
	CallStart, CallEnd time.Time
	// DefaultWindowToSpan defaults the call window, when CallStart is
	// zero, to the span of the fed timestamps at Close — the AnalyzePCAP
	// convention for unannotated captures. Until Close the window is
	// then unknown, so only window-independent filter rules run online.
	DefaultWindowToSpan bool
	// KeepPayloads retains every per-packet record, making Close's
	// result bit-identical to the historical batch output including the
	// buffered stream payloads (which rtcc.Analyze callers may consume).
	// Without it, payload records are kept only for provisionally-RTC
	// UDP streams until their DPI finalization and dropped afterwards.
	KeepPayloads bool
	// FramesStable promises that fed frame buffers stay valid and
	// unmodified for the Analyzer's lifetime, letting it reference
	// payload bytes instead of copying them. Readers that reuse their
	// frame buffer must leave it false.
	FramesStable bool
	// Pool, when non-nil, copies kept UDP payloads into per-stream
	// arenas drawn from this pool instead of heap-allocating each copy,
	// and releases a stream's arena when its payloads are dropped (an
	// online filter removal, a chunk finalization, or Close). Together
	// with FeedBatch this makes the steady-state datagram path
	// allocation-free. Ownership rules are in DESIGN.md §14.
	// Incompatible with KeepPayloads (the batch result would retain
	// released buffers); ignored when FramesStable promises stable
	// frames (nothing is copied then).
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
	// streams.
	insp *dpi.StreamInspector
	// session and partial carry compliance and findings state across
	// chunked finalizations (eviction mode).
	session *compliance.Session
	partial *streamPartial
	// span is the stream's decision-trace span (nil when tracing is
	// off); it buffers events until the analyzer flushes it at a
	// deterministic point.
	span *obs.Span
	// arena holds the stream's pooled payload copies (pool mode only);
	// released whenever the stream's buffered payloads are dropped.
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
// decoding, flow grouping, online filtering, and DPI per frame; Close
// reconciles the online filter verdicts against the full two-stage
// filter and assembles the CaptureAnalysis. With KeepPayloads (and no
// eviction) the result is byte-identical to the batch pipeline; the
// offline entry points are thin wrappers over this type.
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
	// window stays unknown while DefaultWindowToSpan defers it to Close.
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
	// deterministic parts of Close, never from worker goroutines.
	trace *obs.Pipeline

	cm captureMetrics
	am analyzerMetrics
}

// NewAnalyzer validates the configuration and returns an empty
// Analyzer.
func NewAnalyzer(cfg AnalyzerConfig, opts Options) (*Analyzer, error) {
	if cfg.CallEnd.Before(cfg.CallStart) {
		return nil, errors.New("core: call window end precedes start")
	}
	if opts.EvictIdle > 0 && cfg.KeepPayloads {
		return nil, errors.New("core: KeepPayloads is incompatible with EvictIdle")
	}
	if cfg.Pool != nil && cfg.KeepPayloads {
		return nil, errors.New("core: KeepPayloads is incompatible with Pool (the batch result would retain released buffers)")
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
	if !(cfg.DefaultWindowToSpan && cfg.CallStart.IsZero()) {
		a.ev.SetWindow(cfg.CallStart, cfg.CallEnd)
	}
	return a, nil
}

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
// the per-call overhead (the feed-latency probe, the eviction sweep,
// and the per-stream bookkeeping) over the batch and giving the
// same-stream fast path its best hit rate. Output is identical to
// feeding the datagrams one at a time — batching changes scheduling,
// never results.
//
// Unless FramesStable is set, every frame is copied out (to the pool's
// arenas in pool mode) before FeedBatch returns, so the caller may
// reuse the frame buffers — but not before the call returns, which is
// what lets readers batch frames in a reused ring.
func (a *Analyzer) FeedBatch(batch []Datagram) error {
	if a.closed {
		return errors.New("core: Feed after Close")
	}
	if len(batch) == 0 {
		return nil
	}
	start := a.am.feedSeconds.Start()
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
	a.am.feedSeconds.ObserveSince(start)
	a.am.feedBatches.Inc()
	return nil
}

// feedOne is the shared per-frame pipeline step behind Feed and
// FeedBatch: decode, flow grouping, online filtering, and DPI pass 1.
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
	} else {
		st = a.states[key]
	}
	isNew := st == nil

	// Retention: batch compatibility keeps everything; otherwise only
	// provisionally-RTC UDP streams need their records (payload for
	// DPI, timestamp for compliance, direction for findings).
	keep := a.cfg.KeepPayloads || (proto == layers.IPProtocolUDP && (isNew || !st.removed))
	if keep && !a.cfg.FramesStable {
		if a.cfg.Pool != nil {
			// Pool mode: the copy lands in the stream's arena, which
			// requires the state up front (flow.AddPacket cannot fail
			// past the proto check above, so pre-creating is safe).
			if isNew {
				st = &streamState{birth: seq}
				a.states[key] = st
			}
			if st.arena == nil {
				st.arena = a.cfg.Pool.NewArena()
			}
			pkt.Payload = st.arena.Append(pkt.Payload)
		} else {
			// make+copy (not append to nil) so a zero-length payload
			// stays a non-nil empty slice, exactly as the batch decoder
			// leaves it.
			cp := make([]byte, len(pkt.Payload))
			copy(cp, pkt.Payload)
			pkt.Payload = cp
		}
	}
	var s *flow.Stream
	if st != nil && st.s != nil {
		// Known stream: append directly, skipping the key
		// re-canonicalization and stream-map lookup.
		s = st.s
		dir := flow.DirAToB
		if key.A != src {
			dir = flow.DirBToA
		}
		var flags uint8
		if pkt.TCP != nil {
			flags = pkt.TCP.Flags
		}
		a.table.AddToStream(s, ts, dir, src, dst, pkt.Payload, flags, keep)
	} else {
		var ok bool
		s, ok = a.table.AddPacket(ts, pkt, keep)
		if !ok {
			return
		}
	}
	if st == nil {
		st = &streamState{s: s, birth: seq}
		a.states[key] = st
	} else if st.s == nil {
		st.s = s
	}
	a.lastKey, a.lastSt = key, st

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
		// its payloads can go now.
		if !st.removed {
			if rule, _ := a.ev.Check(s, st.sni); rule != "" {
				st.removed = true
				if !a.cfg.KeepPayloads {
					s.Packets = nil
				}
				st.insp = nil
				if st.arena != nil {
					// The records and inspector buffer are gone; the
					// copies are dead, so the chunks go back to the pool.
					st.arena.Release()
					st.arena = nil
				}
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
		st.insp.Feed(pkt.Payload)
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
// stream's buffered records and releases them. The per-stream contexts
// persist in the state, so a later chunk continues seamlessly.
func (a *Analyzer) finalizeChunk(st *streamState) {
	s := st.s
	if s.Key.Proto == layers.IPProtocolUDP && !st.removed && st.insp != nil && st.insp.Pending() > 0 {
		if st.partial == nil {
			st.partial = newStreamPartial(st.span, s.Key.String(), a.opts.QoE)
			checker := compliance.NewCheckerWith(a.opts.Registry)
			checker.SetMetrics(a.opts.Metrics)
			st.session = checker.NewSession()
		}
		recs := s.Packets
		results := st.insp.Finalize()
		st.partial.consume(recs, results, st.session, a.opts.SkipFindings)
		// Eviction happens during the single-goroutine Feed, so flushing
		// here is a deterministic export point for the chunk's events.
		st.span.Flush()
	}
	if !a.cfg.KeepPayloads {
		a.dropRecords(s)
	}
	if st.arena != nil {
		// Everything in the chunk has been consumed (verdicts and trace
		// windows copy the bytes they keep); the payload copies go back
		// to the pool. The arena stays usable for a wake-up.
		st.arena.Release()
	}
}

// dropRecords releases a stream's per-packet records. In pool mode the
// record storage is recycled in place (the next chunk reuses the
// array); otherwise it is handed to the GC, matching the historical
// nil convention the KeepPayloads result shape relies on.
func (a *Analyzer) dropRecords(s *flow.Stream) {
	if a.cfg.Pool != nil {
		clear(s.Packets)
		s.Packets = s.Packets[:0]
		return
	}
	s.Packets = nil
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
	return a.finalize()
}

// finalize is Close without the reuse guard: the full two-stage filter
// over the accumulated table, reconciliation, the parallel per-stream
// finalization, and the deterministic fold. MergeAnalyzers runs it over
// a synthetic analyzer holding the union of N shards' state, which is
// why sharded output is byte-identical to serial by construction — it
// is literally this code path either way.
func (a *Analyzer) finalize() (*CaptureAnalysis, error) {
	callStart, callEnd := a.cfg.CallStart, a.cfg.CallEnd
	if a.cfg.DefaultWindowToSpan && callStart.IsZero() && a.frames > 0 {
		callStart, callEnd = a.firstTS, a.lastTS
	}
	if a.table.Len() == 0 && a.frames > 0 {
		return nil, fmt.Errorf("%w (%d frames, %d decode errors)", ErrNoDecodable, a.frames, a.decodeErrs)
	}

	cm := newCaptureMetrics(a.opts.Metrics, a.cfg.Label)
	cm.captures.Inc()
	cm.frames.Add(uint64(a.frames))
	cm.decodeErrors.Add(uint64(a.decodeErrs))
	cm.packets.Add(uint64(a.frames - a.decodeErrs))
	cm.workers.Set(int64(a.opts.workers()))

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
	// finally RTC) cannot happen.
	for _, s := range fres.RemovedStreams {
		st := a.states[s.Key]
		if st == nil || st.removed || s.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		if st.insp != nil || st.partial != nil {
			a.am.reclassified.Inc()
			if a.trace != nil {
				rm := fres.Removed[s.Key]
				a.trace.StreamReclassified(s.Key.String(), rm.Stage, string(rm.Rule))
			}
			st.insp = nil
			st.partial = nil
			st.span = nil
		}
		if !a.cfg.KeepPayloads {
			s.Packets = nil
		}
		if st.arena != nil {
			st.arena.Release()
			st.arena = nil
		}
	}

	// Finalize the surviving UDP RTC streams, fanned out exactly like
	// the batch path, and fold in deterministic RTC order.
	var udp []*flow.Stream
	for _, s := range fres.RTC {
		if s.Key.Proto == layers.IPProtocolUDP {
			udp = append(udp, s)
		}
	}
	cm.rtcStreams.Add(uint64(len(udp)))
	partials := make([]*streamPartial, len(udp))
	forEachIndexed(len(udp), a.opts.workers(), func(i int) error {
		start := cm.streamSeconds.Start()
		partials[i] = a.finishStream(udp[i])
		cm.streamSeconds.ObserveSince(start)
		return nil
	})

	foldStart := cm.foldSeconds.Start()
	foldPartials(ca, partials, a.opts.SkipFindings)
	cm.foldSeconds.ObserveSince(foldStart)

	if a.trace != nil {
		for _, f := range ca.Findings {
			a.trace.FindingEmitted(f.Kind, f.Detail)
		}
		a.trace.CaptureEnd(fmt.Sprintf("%d frames, %d decode errors", a.frames, a.decodeErrs))
	}

	a.active = 0
	a.am.active.Set(0)
	return ca, nil
}

// finishStream completes one final-RTC UDP stream: last DPI chunk,
// compliance, findings. Safe to run concurrently across streams — all
// touched state is per-stream (the shared engine and states map are
// read-only here).
func (a *Analyzer) finishStream(s *flow.Stream) *streamPartial {
	st := a.states[s.Key]
	if st.partial == nil {
		st.partial = newStreamPartial(st.span, s.Key.String(), a.opts.QoE)
		checker := compliance.NewCheckerWith(a.opts.Registry)
		checker.SetMetrics(a.opts.Metrics)
		st.session = checker.NewSession()
	}
	if st.insp != nil && st.insp.Pending() > 0 {
		st.partial.consume(s.Packets, st.insp.Finalize(), st.session, a.opts.SkipFindings)
	}
	if !a.cfg.KeepPayloads {
		s.Packets = nil
	}
	if st.arena != nil {
		// The verdicts and trace events copied whatever bytes they
		// keep, so the stream's pooled copies are dead; the shared pool
		// is safe to return to from concurrent workers.
		st.arena.Release()
		st.arena = nil
	}
	return st.partial
}
