package dpi

import (
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// StreamInspector runs Algorithm 1 over the datagrams of one transport
// stream incrementally, reading the caller's own records of the stream
// in place: the chunk is every record since the previous Finalize, in
// feed order. Feed runs pass 1 (the registered probers' stream-level
// scans) over the records it has not scanned once scanBatch of them
// await it and, on a stream's first chunk, pass 2 over them too;
// Finalize scans the fewer than scanBatch still waiting, then runs
// pass 2 over the records no earlier call returned. Between calls the
// inspector holds indexes into the chunk, never a payload reference,
// so the caller alone decides when payload bytes are released.
//
// Running pass 1 as datagrams arrive instead of at the chunk boundary
// changes no output: pass 1 is a fold over the stream's datagrams in
// feed order whose result only pass 2 reads, each datagram is scanned
// once, in order, over the bytes pass 2 later reads (the pipeline's
// payloads stay unmodified until the chunk is finalized, DESIGN.md
// §14), and pass 1 emits no trace event and counts no shift attempt.
//
// Pass 2 of a chunk consults the validated-SSRC set as of the chunk's
// last datagram, which Feed cannot know. It runs pass 2 against the
// set as it stands, and the results stay good as long as the set does
// not grow: the set only gains entries, so an unchanged size is an
// unchanged set, and results computed against it are the ones Finalize
// would compute. Once the set has grown past results Feed returned,
// Feed stops running pass 2 for the chunk, and Finalize restarts it
// from a fresh context at the chunk's first record and returns results
// for the whole chunk; the caller replaces what it held from there. So
// a chunk's pass 2 restarts at most once, and the work a restart
// discards is less than the chunk. A fresh context is the right start
// state only on a stream's first chunk, so Feed runs pass 2 only
// there, and not on a traced stream, whose export must keep each
// chunk's probe events ahead of its verdict events. What moving the
// work changes is where the time goes: the feeding goroutine (a shard
// worker on the sharded tier) pays both passes while it reads, so the
// chunk's Finalize, which is what a capture's or a daemon epoch's close
// waits for, runs a short tail of them only.
//
// RTP is the one target protocol whose header pattern is weak (any
// version-2 first byte passes), so candidate extraction alone produces
// false positives inside proprietary headers and encrypted payloads.
// The paper's protocol-specific validation resolves this with
// cross-packet heuristics: "valid SSRC ... continuous sequence number
// within the same stream". The two-pass design implements that
// literally:
//
//   - Pass 1 visits every not-yet-consumed offset of every datagram
//     that some pass-1 prober's gate admits, and runs there the probers
//     whose gates admit it: strong-signature probers consume their
//     span, weak-signature probers (the RTP driver) tally per-SSRC
//     validation evidence into the scan state. A gate is a necessary
//     condition of its prober, so the offsets passed over are exactly
//     those where no prober could act;
//   - an SSRC is validated when it appears at least twice with at least
//     one sequence-continuous, timestamp-plausible adjacent pair;
//   - Pass 2 re-scans each datagram (Engine.Inspect), accepting
//     strongly-signatured protocols immediately and RTP only for
//     validated SSRCs in sequence order. Its scan plan visits only the
//     offsets where some validator could accept, given the probers'
//     gates and the stream state, with the validated SSRCs as search
//     words; the output, the shift-attempt count and the decision
//     trace are those of trying every offset.
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
	// scanned counts the leading records of the current chunk pass 1
	// has already scanned; the chunk's records from there on await it.
	scanned int
	// done counts the leading records of the current chunk whose pass-2
	// results an earlier call returned; validated is the size of the
	// validated-SSRC set they were computed against.
	done, validated int
	// wait makes the chunk's pass 2 wait for Finalize: set on a traced
	// stream, after the stream's first Finalize, and once the
	// validated-SSRC set has grown past the results Feed returned.
	wait bool
	// messages counts the messages of the results the current chunk
	// has kept, per protocol, for dpi_messages_total at Finalize.
	messages [proto.MaxIDs]uint64
	// results is the reused output buffer; each pass-2 call overwrites
	// the previous call's results, which the pipeline has consumed by
	// then (DESIGN.md §14).
	results []Result
	// drainedAttempts tracks how many shift attempts have already been
	// recorded, so chunked Finalize calls add only the delta.
	drainedAttempts int
	// span, when non-nil, receives the stream's decision trace during
	// pass 2 (pass 1 only tallies evidence and produces no decisions).
	span *obs.Span
	// walk is pass 1's plan walk, reused across datagrams.
	walk proto.Walk
}

// SetSpan attaches a decision-trace span; pass 2 of every subsequent
// Finalize emits probe and extraction events into it, and Feed leaves
// pass 2 to Finalize. A nil span (the default) keeps inspection
// trace-free. Attach it before the first Feed.
func (si *StreamInspector) SetSpan(sp *obs.Span) {
	si.span = sp
	if sp != nil {
		si.wait = true
	}
}

// NewStreamInspector returns an inspector with empty per-stream state.
func (e *Engine) NewStreamInspector() *StreamInspector {
	return &StreamInspector{
		e:    e,
		m:    e.metricsHandles(),
		reg:  e.registry(),
		scan: proto.NewScanState(),
	}
}

// scanBatch is how many fed datagrams wait for pass 1 before Feed
// scans them, the batch size the pipeline's feeding loops hand
// core.Analyzer.FeedBatch. Scanning at every Feed measured slower end
// to end; larger batches measured no faster.
const scanBatch = 64

// Feed runs pass 1 over the chunk's records it has not scanned yet
// whenever scanBatch of them await it, then, on a stream's first
// chunk, pass 2 over the records no earlier call returned. recs is
// every record of the stream since the previous Finalize, in feed
// order: each call's recs extends the previous call's. Feed keeps no
// reference to recs, which must stay unmodified until the Finalize that
// ends the chunk.
//
// Feed returns the pass-2 results of the last len(results) records of
// recs, or none: none once the validated-SSRC set has grown past the
// results it returned, which Finalize then replaces. The returned slice
// (and the message storage behind it) is valid only until the
// inspector's next call.
func (si *StreamInspector) Feed(recs []flow.Packet) []Result {
	if len(recs)-si.scanned < scanBatch {
		return nil
	}
	si.scanPending(recs)
	if si.stale() {
		si.wait = true
	}
	if si.wait {
		return nil
	}
	return si.pass2(recs)
}

// scanPending advances pass 1 over the records it has not scanned yet,
// in feed order.
func (si *StreamInspector) scanPending(recs []flow.Packet) {
	for i := si.scanned; i < len(recs); i++ {
		si.scanOne(recs[i].Payload)
	}
	si.scanned = len(recs)
}

// scanOne advances pass 1 over one payload.
func (si *StreamInspector) scanOne(payload []byte) {
	end := min(len(payload), si.e.maxOffset()+1)
	// The registry's pass-1 plan jumps, eight offsets per step, to the
	// next offset whose first four bytes (and framed length) some
	// prober's gate admits, or that carries an anchored gate's word
	// (the STUN cookie). Every offset passed over is one no gate
	// admits, so no prober could have matched or tallied there.
	plan := si.reg.Pass1Plan()
	probers := plan.Probers()
	walk := &si.walk
	plan.Begin(walk, payload, end, &si.scan.Scratch)
	for i := walk.Next(0); i < end; i = walk.Next(i) {
		// Strong-signature probers consume their span so their
		// payloads (e.g. a ChannelData body) are not scanned here;
		// weak-signature probers tally evidence without consuming, so
		// candidate headers advance by one byte because they are not
		// yet trusted. Each prober's full gate settles most admitted
		// offsets without a call.
		c := proto.Candidate{Payload: payload, Offset: i}
		w := proto.Window(payload, i)
		consumed := 0
		for k := range probers {
			if g := probers[k].Gate; !g.Admits(w) || !g.Fits(w, len(payload)-i) {
				continue
			}
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

// stale reports whether results an earlier call returned for the chunk
// were computed against a validated-SSRC set that has grown since.
func (si *StreamInspector) stale() bool {
	return si.done > 0 && len(si.scan.ValidatedSSRC) != si.validated
}

// pass2 runs pass 2 over the chunk's records no earlier call returned,
// against the validated-SSRC set as it stands, and returns their
// results.
func (si *StreamInspector) pass2(recs []flow.Packet) []Result {
	if si.ctx == nil {
		si.ctx = NewStreamContext()
	}
	// A new epoch recycles the per-stream message and packet arenas:
	// everything the previous call returned has been consumed.
	si.ctx.State.Epoch++
	si.ctx.Span = si.span
	si.ctx.State.ValidatedSSRC = si.scan.ValidatedSSRC
	si.validated = len(si.scan.ValidatedSSRC)
	// Size the results and the message arena to the run up front, so
	// pass 2 does not leave a trail of doubled-and-dropped buffers.
	n := len(recs) - si.done
	if cap(si.results) < n {
		si.results = make([]Result, 0, n)
	}
	if cap(si.ctx.msgArena) < n {
		si.ctx.msgArena = make([]Message, 0, n)
	}
	out := si.results[:0]
	for i := si.done; i < len(recs); i++ {
		r := si.e.Inspect(recs[i].Payload, si.ctx)
		for _, msg := range r.Messages {
			if int(msg.Protocol) < len(si.messages) {
				si.messages[msg.Protocol]++
			}
		}
		out = append(out, r)
	}
	si.done = len(recs)
	si.results = out
	return out
}

// Finalize completes pass 1 over the chunk's records Feed has not
// scanned, then runs pass 2 over the records no earlier call returned,
// with the validated-SSRC set as known after the chunk's last record.
// If the set has grown since the results Feed returned, it discards
// them, counts them in dpi_pass2_discarded_total, and restarts pass 2
// from a fresh context at the chunk's first record: Feed returns
// results only on a stream's first chunk, whose pass 2 started from a
// fresh context. It returns the results of the last len(results)
// records of recs, as Feed does: all of them unless Feed returned some
// that stayed good. It then records the messages and shift attempts of
// the chunk's kept results. recs is the chunk Feed saw, with any
// records since appended. The inspector remains usable: the caller's
// next records start a new chunk that continues the same stream state,
// and their pass 2 waits for Finalize.
//
// The returned slice (and the message storage behind it) is valid only
// until the inspector's next call; the pipeline consumes each call's
// results before feeding on (DESIGN.md §14).
func (si *StreamInspector) Finalize(recs []flow.Packet) []Result {
	// Pass 1's tail: the evidence is complete through the chunk's last
	// datagram before any pass-2 decision is kept.
	si.scanPending(recs)
	if si.stale() {
		si.m.discarded.Add(uint64(si.done))
		si.done = 0
		si.ctx = nil
		clear(si.messages[:])
	}
	out := si.pass2(recs)
	for id, n := range si.messages {
		if n > 0 {
			si.m.messages[id].Add(n)
		}
	}
	si.m.attempts.Add(uint64(si.ctx.shiftAttempts - si.drainedAttempts))
	si.drainedAttempts = si.ctx.shiftAttempts
	si.scanned, si.done = 0, 0
	clear(si.messages[:])
	si.wait = true
	return out
}

// InspectStream runs Algorithm 1 over all datagrams of one transport
// stream, in capture order, with full two-stage validation: one
// Finalize of a fresh StreamInspector over records holding the
// payloads. It serves callers that hold bare payloads; a caller with
// the stream's records hands them to Finalize directly.
//
// Single-datagram Inspect remains available for stateless use, but the
// pipeline always uses a StreamInspector.
func (e *Engine) InspectStream(payloads [][]byte) []Result {
	recs := make([]flow.Packet, len(payloads))
	for i, p := range payloads {
		recs[i].Payload = p
	}
	return e.NewStreamInspector().Finalize(recs)
}
