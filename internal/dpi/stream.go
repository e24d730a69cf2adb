package dpi

import (
	"time"

	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// StreamInspector runs Algorithm 1 over the datagrams of one transport
// stream incrementally. Feed buffers the payload; Finalize runs pass 1
// (the registered probers' stream-level scans) as one batched sweep
// over everything buffered since the previous Finalize, then pass 2
// over the same chunk, and releases the payload references, so a
// caller that finalizes periodically never holds payload bytes past
// the DPI stage.
//
// Running pass 1 at the chunk boundary instead of per Feed changes no
// output: pass 2 of a chunk consults the validated-SSRC evidence as of
// the chunk's end, and whether that evidence was tallied datagram by
// datagram as each arrived or in one sweep over the buffered chunk,
// the sightings happen in the same stream order over the same bytes.
// What it changes is cost shape: the ingestion path does per-packet
// bookkeeping only, and the two scan passes run back to back over
// payloads that are still warm in cache.
//
// RTP is the one target protocol whose header pattern is weak (any
// version-2 first byte passes), so candidate extraction alone produces
// false positives inside proprietary headers and encrypted payloads.
// The paper's protocol-specific validation resolves this with
// cross-packet heuristics: "valid SSRC ... continuous sequence number
// within the same stream". The two-pass design implements that
// literally:
//
//   - Pass 1 runs every registered Pass1 prober at every
//     not-yet-consumed offset of every datagram: strong-signature
//     probers consume their span, weak-signature probers (the RTP
//     driver) tally per-SSRC validation evidence into the scan state;
//   - an SSRC is validated when it appears at least twice with at least
//     one sequence-continuous, timestamp-plausible adjacent pair;
//   - Pass 2 re-scans each datagram, accepting strongly-signatured
//     protocols immediately and RTP only for validated SSRCs in
//     sequence order.
//
// Because pass 2 of a datagram consults the validated-SSRC set, a
// single Finalize over the whole stream reproduces the batch
// InspectStream exactly; chunked finalization uses the set as known at
// each chunk boundary (the streaming analyzer's eviction path), which
// is identical unless an SSRC first validates only in a later chunk.
type StreamInspector struct {
	e   *Engine
	m   engineMetrics
	reg *proto.Registry
	// scan is the pass-1 state, persistent across Feeds: the probers'
	// scratch stream state plus the validated-SSRC evidence.
	scan *proto.ScanState
	// ctx is the pass-2 context, persistent across Finalize calls so a
	// resumed (fed-again) stream continues its sequence state.
	ctx *StreamContext
	// payloads buffers datagrams fed since the last Finalize. The
	// backing array is reused across chunks (references are cleared at
	// Finalize so released pool buffers are not pinned).
	payloads [][]byte
	// results is the reused Finalize output buffer; each Finalize
	// overwrites the previous chunk's results, which the pipeline has
	// consumed by then (DESIGN.md §14).
	results []Result
	// scanTime holds each buffered datagram's pass-1 time while pass 2
	// runs (filled only when metrics are on).
	scanTime []time.Duration
	// drainedAttempts tracks how many shift attempts have already been
	// recorded, so chunked Finalize calls add only the delta.
	drainedAttempts int
	// span, when non-nil, receives the stream's decision trace during
	// pass 2 (pass 1 only tallies evidence and produces no decisions).
	span *obs.Span
}

// SetSpan attaches a decision-trace span; pass 2 of every subsequent
// Finalize emits probe and extraction events into it. A nil span (the
// default) keeps inspection trace-free.
func (si *StreamInspector) SetSpan(sp *obs.Span) { si.span = sp }

// NewStreamInspector returns an inspector with empty per-stream state.
func (e *Engine) NewStreamInspector() *StreamInspector {
	return &StreamInspector{
		e:    e,
		m:    e.metricsHandles(),
		reg:  e.registry(),
		scan: proto.NewScanState(),
	}
}

// Feed buffers one datagram payload for the next Finalize. The payload
// is retained by reference until then; both scan passes run over the
// buffered chunk at Finalize.
func (si *StreamInspector) Feed(payload []byte) {
	si.payloads = append(si.payloads, payload)
}

// scanOne advances pass 1 over one buffered payload.
func (si *StreamInspector) scanOne(payload []byte) {
	limit := si.e.MaxOffset
	if limit <= 0 {
		limit = 200
	}
	i := 0
	for i < len(payload) && i <= limit {
		// Strong-signature probers consume their span so their
		// payloads (e.g. a ChannelData body) are not scanned here;
		// weak-signature probers tally evidence without consuming, so
		// candidate headers advance by one byte because they are not
		// yet trusted. The registry's first-byte table skips probers
		// whose wire format cannot start with this byte, and the
		// bitmap check settles no-prober bytes with a single load.
		if !si.reg.Pass1Possible(payload[i]) {
			i++
			continue
		}
		c := proto.Candidate{Payload: payload, Offset: i}
		consumed := 0
		probers := si.reg.Pass1ProbersFor(payload[i])
		for k := range probers {
			if n, ok := probers[k].Probe(c, si.scan); ok {
				consumed = n
				break
			}
		}
		if consumed > 0 {
			i += consumed
		} else {
			i++
		}
	}
}

// Pending reports how many fed datagrams await Finalize.
func (si *StreamInspector) Pending() int { return len(si.payloads) }

// Finalize runs pass 1 and then pass 2 over the buffered datagrams
// (pass 2 with the validated-SSRC set as known after pass 1), records
// the per-datagram metrics, releases the payload buffer, and returns
// one Result per buffered datagram in feed order. The inspector remains
// usable: later Feeds start a new chunk that continues the same stream
// state.
//
// The returned slice (and the message storage behind it) is a
// per-inspector scratch buffer, valid only until the next Finalize on
// the same inspector; the pipeline consumes each chunk's results
// before feeding the next (DESIGN.md §14).
func (si *StreamInspector) Finalize() []Result {
	if si.ctx == nil {
		si.ctx = NewStreamContext()
	}
	// A new epoch recycles the per-stream message and packet arenas:
	// everything extracted in the previous chunk has been consumed.
	si.ctx.State.Epoch++
	si.ctx.Span = si.span
	// Pass 1: one batched sweep over the chunk, tallying validation
	// evidence in feed order before any pass-2 decision is made. With
	// metrics on, each datagram's scan time is kept for its
	// dpi_inspect_seconds sample, which covers both passes.
	timed := si.m.latency != nil
	si.scanTime = si.scanTime[:0]
	for _, p := range si.payloads {
		start := si.m.latency.Start()
		si.scanOne(p)
		if timed {
			si.scanTime = append(si.scanTime, time.Since(start))
		}
	}
	si.ctx.State.ValidatedSSRC = si.scan.ValidatedSSRC
	out := si.results[:0]
	for i, p := range si.payloads {
		start := si.m.latency.Start()
		r := si.e.Inspect(p, si.ctx)
		if timed {
			si.m.latency.ObserveDuration(si.scanTime[i] + time.Since(start))
		}
		si.m.classes[r.Class].Inc()
		for _, msg := range r.Messages {
			if int(msg.Protocol) < len(si.m.messages) {
				si.m.messages[msg.Protocol].Inc()
			}
		}
		out = append(out, r)
	}
	si.m.attempts.Add(uint64(si.ctx.shiftAttempts - si.drainedAttempts))
	si.drainedAttempts = si.ctx.shiftAttempts
	// Drop the payload references (the buffers may return to a pool)
	// but keep the backing array for the next chunk.
	clear(si.payloads)
	si.payloads = si.payloads[:0]
	si.results = out
	return out
}

// InspectStream runs Algorithm 1 over all datagrams of one transport
// stream, in capture order, with full two-stage validation: a
// StreamInspector fed every payload and finalized once, which makes the
// batch and streaming paths the same code by construction.
//
// Single-datagram Inspect remains available for stateless use, but the
// pipeline always uses InspectStream or a StreamInspector.
func (e *Engine) InspectStream(payloads [][]byte) []Result {
	si := e.NewStreamInspector()
	for _, p := range payloads {
		si.Feed(p)
	}
	return si.Finalize()
}
