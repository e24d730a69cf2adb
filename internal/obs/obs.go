// Package obs is the pipeline's decision-trace layer: a structured
// record of *why* the measurement pipeline reached each verdict, the
// per-decision complement of internal/metrics' how-much/how-fast
// counters.
//
// Every analyzed capture gets one capture-scoped span; every
// provisionally-RTC stream gets one stream-scoped span whose parent is
// the capture span. Typed events flow through them:
//
//   - stream-admitted / stream-filtered{stage, rule} — the two-stage
//     filter's per-stream verdict (§3.2);
//   - probe{offset, proto, first, outcome} — one Algorithm 1 candidate
//     extraction step: either a prober matched at an offset or the
//     cursor shifted one byte (§4.1.1);
//   - extraction{class} — the per-datagram classification (§4.1.2);
//   - verdict{criterion, msgtype, reason} — one five-criterion
//     compliance judgment (§4.2), with the offending bytes;
//   - finding{kind} — a behavioural finding (§5.3);
//   - stream-evicted — the streaming analyzer's idle eviction;
//   - truncated{dropped} — a sampling marker (see below).
//
// Tracing mirrors Options.Metrics: a nil Tracer costs nothing on the
// hot path (one nil pointer branch per probe step), and tracing never
// changes analysis output.
//
// # Determinism
//
// Trace output is byte-identical across serial and sharded runs of the
// same seeded capture. Stream spans buffer their events and are flushed
// by the pipeline at deterministic points (idle eviction during the
// single-goroutine Feed, and the deterministic fold in Close), so the
// Tracer always observes one well-defined order no matter how many
// goroutines inspected streams concurrently. On the sharded tier each
// shard's spans move to the merged analyzer's pipeline (Span.Adopt),
// which emits the capture-level events once. Event timestamps come from
// the capture, never from the wall clock.
//
// # Sampling
//
// Probe steps dominate trace volume (a 1000-byte fully-proprietary
// datagram is up to 1000 shift events), so each stream span applies a
// deterministic head/tail policy: the first Sampling.Head events are
// kept, the most recent Sampling.Tail are kept in a ring, everything
// between is counted and reported by a truncated{dropped} marker.
// Failing compliance verdicts bypass sampling entirely — `-explain` can
// always name the exact failing criterion for any non-compliant
// message. Per-span sequence numbers are assigned before sampling, so
// gaps in exported seqs identify exactly where events were dropped.
package obs

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Kind identifies the type of one trace event.
type Kind string

// The event taxonomy. Stable: these strings appear in exported JSONL.
const (
	KindCaptureBegin     Kind = "capture-begin"
	KindCaptureEnd       Kind = "capture-end"
	KindStreamAdmitted   Kind = "stream-admitted"
	KindStreamFiltered   Kind = "stream-filtered"
	KindStreamEvicted    Kind = "stream-evicted"
	KindProbeAttempt     Kind = "probe"
	KindExtraction       Kind = "extraction"
	KindCriterionVerdict Kind = "verdict"
	KindFindingEmitted   Kind = "finding"
	KindTruncated        Kind = "truncated"
)

// Kinds lists every event kind, in taxonomy order.
var Kinds = []Kind{
	KindCaptureBegin, KindCaptureEnd,
	KindStreamAdmitted, KindStreamFiltered,
	KindStreamEvicted,
	KindProbeAttempt, KindExtraction, KindCriterionVerdict,
	KindFindingEmitted, KindTruncated,
}

// Probe outcomes.
const (
	OutcomeMatch = "match" // a prober validated a message at this offset
	OutcomeShift = "shift" // no prober matched; the cursor advanced one byte
)

// Event is one pipeline decision. The JSON field order is the wire
// schema of the JSONL exporter; rtctrace -lint validates it strictly
// (unknown fields are schema errors).
//
// Field applicability by kind:
//
//	capture-begin/-end    App (end also Detail)
//	stream-admitted       Stream
//	stream-filtered       Stream, Stage, Rule, Detail
//	stream-evicted        Stream
//	probe                 Stream, Dgram, Offset, First, Outcome, Proto (on match)
//	extraction            Stream, Dgram, Class, Messages
//	verdict               Stream, Dgram, Offset, TS, Proto, MsgType, Criterion, Reason, Bytes
//	finding               Rule (the finding kind), Detail
//	truncated             Stream, Dropped
//
// Dgram numbers are 1-based (0 means "no datagram context").
type Event struct {
	Kind   Kind   `json:"kind"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Seq    uint64 `json:"seq"`
	App    string `json:"app,omitempty"`
	Stream string `json:"stream,omitempty"`
	TS     string `json:"ts,omitempty"`

	Dgram  int `json:"dgram,omitempty"`
	Offset int `json:"offset,omitempty"`

	Proto   string `json:"proto,omitempty"`
	First   string `json:"first,omitempty"` // first payload byte, two hex digits
	Outcome string `json:"outcome,omitempty"`

	Class    string `json:"class,omitempty"`
	Messages int    `json:"messages,omitempty"`

	Criterion int    `json:"criterion,omitempty"` // 1-5; absent = compliant
	MsgType   string `json:"msgtype,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Bytes     string `json:"bytes,omitempty"` // offending bytes, hex

	Stage  int    `json:"stage,omitempty"` // filter stage 1 or 2
	Rule   string `json:"rule,omitempty"`
	Detail string `json:"detail,omitempty"`

	Dropped int `json:"dropped,omitempty"`
}

// Tracer receives the event stream of one analysis. The pipeline calls
// Emit at deterministic points and never concurrently for one capture,
// but sinks shared across captures must be safe for concurrent use.
type Tracer interface {
	Emit(ev Event)
}

// Sampling is the per-stream-span retention policy: keep the first Head
// events, ring-buffer the last Tail, count the rest. The zero value
// selects the defaults.
type Sampling struct {
	Head int
	Tail int
}

// Default sampling bounds.
const (
	DefaultHead = 96
	DefaultTail = 32
)

func (s Sampling) withDefaults() Sampling {
	if s.Head <= 0 {
		s.Head = DefaultHead
	}
	if s.Tail <= 0 {
		s.Tail = DefaultTail
	}
	return s
}

// SpanID derives the deterministic span identifier for a stream of a
// labelled capture (stream "" yields the capture span). IDs are stable
// across runs and across serial/parallel execution: FNV-64a over the
// label and canonical stream key.
func SpanID(label, stream string) string {
	h := fnv.New64a()
	h.Write([]byte(label))
	h.Write([]byte{0})
	h.Write([]byte(stream))
	return fmt.Sprintf("%016x", h.Sum64())
}

// CriterionName names a compliance criterion (1-5) as the paper's model
// does; 0 is "compliant". It mirrors proto.Criterion.String without
// importing the registry, so trace tooling stays dependency-light.
func CriterionName(c int) string {
	switch c {
	case 0:
		return "compliant"
	case 1:
		return "message type definition"
	case 2:
		return "header field validity"
	case 3:
		return "attribute type validity"
	case 4:
		return "attribute value validity"
	case 5:
		return "syntax and semantic integrity"
	}
	return fmt.Sprintf("criterion %d", c)
}

// fmtTS renders a capture timestamp; zero times are omitted.
func fmtTS(ts time.Time) string {
	if ts.IsZero() {
		return ""
	}
	return ts.UTC().Format(time.RFC3339Nano)
}

const hexDigits = "0123456789abcdef"

// hexByteTab interns the 256 two-digit byte strings so the per-probe
// First field never allocates (probe events dominate trace volume).
var hexByteTab = func() [256]string {
	var tab [256]string
	for i := range tab {
		tab[i] = string([]byte{hexDigits[i>>4], hexDigits[i&0x0f]})
	}
	return tab
}()

// hexByte renders one byte as two hex digits.
func hexByte(b byte) string {
	return hexByteTab[b]
}

// hexBytes renders a byte window as lowercase hex, truncated to max
// bytes with a trailing ellipsis.
func hexBytes(b []byte, max int) string {
	trunc := false
	if len(b) > max {
		b, trunc = b[:max], true
	}
	out := make([]byte, 0, 2*len(b)+1)
	for _, x := range b {
		out = append(out, hexDigits[x>>4], hexDigits[x&0x0f])
	}
	if trunc {
		out = append(out, '+')
	}
	return string(out)
}
