package obs

import (
	"time"

	"github.com/rtc-compliance/rtcc/internal/metrics"
)

// Pipeline is the capture-scoped emission context. The analyzer creates
// one per capture via New and emits capture-level decisions (filter
// verdicts, lifecycle events, findings) through it directly; per-stream
// decisions go through child Spans from StreamSpan.
//
// A nil *Pipeline no-ops every method, so call sites thread it through
// unguarded exactly like a nil *metrics.Registry. Pipeline methods are
// not safe for concurrent use: the analyzer only emits from
// deterministic single-goroutine points (Feed, the Close fold).
type Pipeline struct {
	tr       Tracer
	label    string
	span     string // capture span ID
	seq      uint64
	sampling Sampling
	begun    bool // the capture-begin event has been emitted
}

// New builds a Pipeline emitting to tr, labelled label (typically the
// app name or capture path; it seeds all span IDs). A nil tr yields a
// nil Pipeline. The capture-begin event goes out just before the
// pipeline's first other event, so a pipeline that emits nothing of its
// own — an ingest shard, whose spans the merge hands to the merged
// analyzer's pipeline (Span.Adopt) — never begins a second capture.
func New(tr Tracer, label string, s Sampling, reg *metrics.Registry) *Pipeline {
	if tr == nil {
		return nil
	}
	return &Pipeline{
		tr:       tracerWithCounts(tr, reg),
		label:    label,
		span:     SpanID(label, ""),
		sampling: s.withDefaults(),
	}
}

// emit stamps the capture span identity and sequence and forwards to
// the sink.
func (p *Pipeline) emit(ev Event) {
	p.begin()
	ev.Span = p.span
	ev.Seq = p.seq
	p.seq++
	p.tr.Emit(ev)
}

// begin emits the capture-begin event unless it has gone out already.
func (p *Pipeline) begin() {
	if p.begun {
		return
	}
	p.begun = true
	p.emit(Event{Kind: KindCaptureBegin, App: p.label})
}

// StreamAdmitted records that the filter pipeline admitted a stream as
// provisional RTC traffic.
func (p *Pipeline) StreamAdmitted(stream string) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindStreamAdmitted, Stream: stream})
}

// StreamFiltered records that a filter rule removed a stream, naming
// the stage (1 or 2) and rule that fired.
func (p *Pipeline) StreamFiltered(stream string, stage int, rule, detail string) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindStreamFiltered, Stream: stream, Stage: stage, Rule: rule, Detail: detail})
}

// StreamEvicted records an idle-eviction chunk finalization of a
// stream during streaming analysis.
func (p *Pipeline) StreamEvicted(stream string) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindStreamEvicted, Stream: stream})
}

// FindingEmitted records a behavioural finding (§5.3) surfacing in the
// capture's report.
func (p *Pipeline) FindingEmitted(kind, detail string) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindFindingEmitted, Rule: kind, Detail: detail})
}

// CaptureEnd closes the capture span. detail summarizes the run (frame
// and error counts).
func (p *Pipeline) CaptureEnd(detail string) {
	if p == nil {
		return
	}
	p.emit(Event{Kind: KindCaptureEnd, App: p.label, Detail: detail})
}

// StreamSpan derives the child span for one stream. The span buffers
// its events under the head/tail sampling policy until Flush; it is
// single-goroutine (each stream is inspected by exactly one worker).
// A nil Pipeline yields a nil Span, which no-ops.
func (p *Pipeline) StreamSpan(stream string) *Span {
	if p == nil {
		return nil
	}
	return &Span{
		p:      p,
		id:     SpanID(p.label, stream),
		stream: stream,
		s:      p.sampling,
	}
}

// Span buffers the decision trace of one stream. Events are recorded
// with per-span sequence numbers, sampled head/tail, and handed to the
// parent pipeline's sink on Flush — which the analyzer calls only at
// deterministic points, making the exported order independent of
// worker scheduling. Failing verdicts are always kept.
type Span struct {
	p      *Pipeline
	id     string
	stream string
	s      Sampling

	seq      uint64  // next per-span sequence number
	dgram    int     // current 1-based datagram ordinal
	headUsed int     // head budget consumed over the span's lifetime
	head     []Event // first s.Head events
	tail     []Event // ring of the most recent s.Tail overflow events
	tailPos  int
	kept     []Event // forced-keep events (failing verdicts) past the head
	dropped  int
}

// Adopt moves the span under p, whose sink and capture span receive it
// from then on. The cross-shard merge calls it to hand every shard's
// stream spans to the merged analyzer's pipeline, so the capture begins
// once however many shards buffered its streams. A nil span is a no-op.
func (sp *Span) Adopt(p *Pipeline) {
	if sp == nil {
		return
	}
	sp.p = p
}

// BeginDatagram advances the span to the next datagram of the stream.
// Subsequent Probe/Extraction/Verdict events carry its ordinal.
func (sp *Span) BeginDatagram() {
	if sp == nil {
		return
	}
	sp.dgram++
}

// Probe records one Algorithm 1 step at offset: outcome OutcomeMatch
// with the matching protocol name, or OutcomeShift when no prober
// accepted the byte and the cursor advanced.
func (sp *Span) Probe(offset int, first byte, protoName, outcome string) {
	if sp == nil {
		return
	}
	sp.record(Event{
		Kind: KindProbeAttempt, Dgram: sp.dgram, Offset: offset,
		First: hexByte(first), Proto: protoName, Outcome: outcome,
	}, false)
}

// Extraction records the datagram's classification after extraction:
// class (standard / proprietary header / fully proprietary) and the
// number of standard messages extracted.
func (sp *Span) Extraction(class string, messages int) {
	if sp == nil {
		return
	}
	sp.record(Event{Kind: KindExtraction, Dgram: sp.dgram, Class: class, Messages: messages}, false)
}

// Verdict records one five-criterion compliance judgment. criterion 0
// is compliant; 1-5 name the failing criterion, and failing verdicts
// bypass sampling so every non-compliance is explainable. window holds
// the message bytes (truncated for the trace).
func (sp *Span) Verdict(dgram int, ts time.Time, protoName, msgType string, criterion int, reason string, offset int, window []byte) {
	if sp == nil {
		return
	}
	sp.record(Event{
		Kind: KindCriterionVerdict, Dgram: dgram, TS: fmtTS(ts),
		Proto: protoName, MsgType: msgType,
		Criterion: criterion, Reason: reason,
		Offset: offset, Bytes: hexBytes(window, 24),
	}, criterion > 0)
}

// record assigns the next per-span seq and applies the sampling policy:
// head budget first, then forced-keep or the tail ring.
func (sp *Span) record(ev Event, force bool) {
	ev.Span = sp.id
	ev.Parent = sp.p.span
	ev.Stream = sp.stream
	ev.Seq = sp.seq
	sp.seq++
	if sp.headUsed < sp.s.Head {
		sp.headUsed++
		sp.head = append(sp.head, ev)
		return
	}
	if force {
		sp.kept = append(sp.kept, ev)
		return
	}
	if len(sp.tail) < sp.s.Tail {
		sp.tail = append(sp.tail, ev)
		return
	}
	sp.tail[sp.tailPos] = ev
	sp.tailPos = (sp.tailPos + 1) % sp.s.Tail
	sp.dropped++
}

// Flush emits the buffered events in sequence order — head, then the
// forced-keeps and tail ring merged by seq — followed by a truncated
// marker when sampling dropped events. The analyzer calls Flush only
// from deterministic points (eviction during Feed, the Close fold); a
// span may flush more than once (per eviction chunk), and buffers
// reset so events are never emitted twice. The head budget is not
// reset: it spans the stream's lifetime, not one chunk.
func (sp *Span) Flush() {
	if sp == nil {
		return
	}
	sp.p.begin()
	for _, ev := range sp.head {
		sp.p.tr.Emit(ev)
	}
	// Linearize the ring oldest-first.
	tail := make([]Event, 0, len(sp.tail))
	tail = append(tail, sp.tail[sp.tailPos:]...)
	tail = append(tail, sp.tail[:sp.tailPos]...)
	// Merge forced-keeps with the tail by seq (both are individually
	// ordered; forced events may predate or interleave the ring).
	ki, ti := 0, 0
	for ki < len(sp.kept) || ti < len(tail) {
		if ti >= len(tail) || (ki < len(sp.kept) && sp.kept[ki].Seq < tail[ti].Seq) {
			sp.p.tr.Emit(sp.kept[ki])
			ki++
		} else {
			sp.p.tr.Emit(tail[ti])
			ti++
		}
	}
	if sp.dropped > 0 {
		sp.p.tr.Emit(Event{
			Kind: KindTruncated, Span: sp.id, Parent: sp.p.span,
			Stream: sp.stream, Seq: sp.seq, Dropped: sp.dropped,
		})
		sp.seq++
	}
	sp.head = sp.head[:0]
	sp.kept = nil
	sp.tail = nil
	sp.tailPos = 0
	sp.dropped = 0
}
