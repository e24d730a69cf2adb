// Package dpi implements the paper's two-stage deep packet inspection
// (Algorithm 1): offset-shifting candidate extraction followed by
// protocol-specific validation.
//
// For each UDP datagram payload, the engine slides a cursor from byte
// offset 0 up to the configured limit k (200 by default, per §4.1.1 of
// the paper) and tries the wire-format prober of every registered
// protocol whose raw-byte gate admits each offset, in
// demultiplexing-precedence order. The probers and their validation
// heuristics live in the protocol drivers under internal/proto; the
// engine itself knows no protocol — it iterates the registry, so
// adding a protocol never touches this package.
//
// The engine then classifies each datagram (§4.1.2):
//
//   - Standard: a validated message starts at offset 0;
//   - ProprietaryHeader: the first validated message starts later;
//   - FullyProprietary: no validated message anywhere in the payload.
package dpi

import (
	"fmt"

	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// Protocol identifies the protocol of an extracted message; it is the
// registry's identifier type.
type Protocol = proto.ID

// Protocol identifiers, re-exported from the registry for callers that
// reached them through this package.
const (
	ProtoUnknown     = proto.Unknown
	ProtoSTUN        = proto.STUN
	ProtoChannelData = proto.ChannelData
	ProtoRTP         = proto.RTP
	ProtoRTCP        = proto.RTCP
	ProtoQUIC        = proto.QUIC
	ProtoDTLS        = proto.DTLS
)

// Message is one validated protocol message extracted from a datagram.
type Message = proto.Message

// Class is the datagram classification of §4.1.2.
type Class uint8

// Datagram classes.
const (
	ClassFullyProprietary Class = iota
	ClassStandard
	ClassProprietaryHeader
)

func (c Class) String() string {
	switch c {
	case ClassStandard:
		return "standard"
	case ClassProprietaryHeader:
		return "proprietary header"
	case ClassFullyProprietary:
		return "fully proprietary"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Result is the inspection outcome for one datagram.
type Result struct {
	Class    Class
	Messages []Message
	// ProprietaryHeader is the byte region before the first message
	// (nil for standard and fully proprietary datagrams).
	ProprietaryHeader []byte
}

// StreamContext carries per-stream state across datagrams of one
// transport stream, enabling the cross-message validation heuristics.
// A fresh context must be used per stream, and datagrams must be fed in
// capture order. The protocol-private state lives in the embedded
// registry StreamState's per-protocol slots; the engine adds only its
// own scan bookkeeping.
type StreamContext struct {
	// State is the protocol drivers' per-stream validation state.
	State proto.StreamState

	// Span, when non-nil, receives the stream's decision trace: one
	// probe event per Algorithm 1 step (match or one-byte shift) and
	// one extraction event per datagram. Nil (the default) keeps the
	// probe loop allocation-free — a single pointer test per datagram
	// plus one branch per step.
	Span *obs.Span

	// shiftAttempts accumulates candidate-extraction attempts across
	// the stream's datagrams, for the offset-shift metric.
	// InspectStream drains it into the registry.
	shiftAttempts int
	// scratch receives matchAt's output, valid only until the next
	// matchAt call; a per-context field so the scan loop never zeroes
	// a fresh Message per candidate offset.
	scratch Message
	// msgArena is the epoch-scoped backing store for Result.Messages:
	// Inspect appends each datagram's messages here and hands out a
	// capacity-capped subslice, so the steady-state extraction path
	// allocates nothing. The arena rewinds when State.Epoch advances
	// (one bump per StreamInspector pass-2 call, Feed's or Finalize's)
	// — by then the previous call's Results have been consumed
	// (DESIGN.md §14). If append
	// grows the arena mid-epoch, earlier subslices keep pointing into
	// the old backing array, which is never written again, so they
	// stay valid.
	msgArena []Message
	msgEpoch uint64
	// walk is pass 2's region walk, reused across regions and
	// datagrams so a region's start allocates nothing.
	walk proto.Walk
}

// NewStreamContext returns an empty per-stream context.
func NewStreamContext() *StreamContext {
	return &StreamContext{}
}

// Engine runs Algorithm 1.
type Engine struct {
	// MaxOffset is k, the deepest byte offset candidate extraction will
	// shift to; zero or less selects the paper's 200, which it found
	// sufficient (§4.1.1).
	MaxOffset int
	// Metrics, when non-nil, receives the counts only Algorithm 1
	// sees, from each StreamInspector.Finalize: extracted messages per
	// protocol (dpi_messages_total) and offset-shift attempts
	// (dpi_offset_shift_attempts_total) of the results the chunk kept,
	// and the records whose pass 2 a restart discarded
	// (dpi_pass2_discarded_total). Datagram classes and stage
	// latency are recorded from the finished analysis (internal/core).
	// Nil disables collection at zero cost.
	Metrics *metrics.Registry
	// Registry selects the protocol set to probe with; nil means the
	// process-wide default registry. Registry.Without restricts it.
	Registry *proto.Registry
}

// NewEngine returns an engine with the paper's default k=200 probing
// the default registry.
func NewEngine() *Engine {
	return &Engine{}
}

// maxOffset returns k: MaxOffset, or the paper's 200 when it is not
// positive.
func (e *Engine) maxOffset() int {
	if e.MaxOffset <= 0 {
		return 200
	}
	return e.MaxOffset
}

func (e *Engine) registry() *proto.Registry {
	if e.Registry != nil {
		return e.Registry
	}
	return proto.Default()
}

// Inspect runs candidate extraction and validation over one datagram
// payload, updating ctx. ctx may be nil for stateless inspection.
//
// The cursor's walk is split into regions: one starts at offset 0 and
// one right after each accepted message, and a region ends at the next
// match, at the payload end, or (before the first match) past k. The
// first offset of a region runs matchAt directly, so a datagram whose
// message starts there (every standard-class datagram) builds no plan.
// After a miss, the registry's pass-2 plan jumps to the next offset
// where some validator could accept: the offsets it passes over are
// ones where every validator rejects, given the stream state, which
// only a match changes. So the output is that of trying every offset.
// The skipped offsets still count as shift attempts and, with a span
// attached, each still emits its shift probe.
func (e *Engine) Inspect(payload []byte, ctx *StreamContext) Result {
	if ctx == nil {
		ctx = NewStreamContext()
	}
	reg := e.registry()
	tracing := ctx.Span != nil
	if tracing {
		ctx.Span.BeginDatagram()
	}
	if ctx.msgEpoch != ctx.State.Epoch {
		ctx.msgEpoch = ctx.State.Epoch
		ctx.msgArena = ctx.msgArena[:0]
	}
	start := len(ctx.msgArena)
	limit := e.maxOffset()
	plan := reg.Pass2Plan()
	i := 0
	for i < len(payload) {
		end := len(payload)
		if len(ctx.msgArena) == start {
			end = min(end, limit+1)
		}
		if i >= end {
			break
		}
		i = e.region(plan, payload, i, end, ctx)
		if i == end {
			break
		}
		m := ctx.scratch
		if tracing {
			name := ""
			if meta, ok := reg.Meta(m.Protocol); ok {
				name = meta.Name
			}
			ctx.Span.Probe(i, payload[i], name, obs.OutcomeMatch)
		}
		// A driver's Accept hook post-processes the accepted message
		// against its full datagram (the RTP driver truncates at a
		// strong second candidate and records sequence state).
		if a := reg.Accepter(m.Protocol); a != nil {
			m = a.Accept(payload, m, &ctx.State)
		}
		ctx.msgArena = append(ctx.msgArena, m)
		i = m.Offset + m.Length
	}
	var res Result
	// Cap the subslice at its length so a later datagram's append can
	// never write into this Result's message run.
	msgs := ctx.msgArena[start:len(ctx.msgArena):len(ctx.msgArena)]
	if len(msgs) > 0 {
		res.Messages = msgs
	}
	switch {
	case len(msgs) == 0:
		res.Class = ClassFullyProprietary
	case msgs[0].Offset == 0:
		res.Class = ClassStandard
	default:
		res.Class = ClassProprietaryHeader
		res.ProprietaryHeader = payload[:msgs[0].Offset]
	}
	if tracing {
		ctx.Span.Extraction(res.Class.String(), len(msgs))
	}
	return res
}

// region walks one region of payload from its first offset i up to
// end and returns the offset of the first match, with the message in
// ctx.scratch, or end when none matches.
func (e *Engine) region(plan *proto.ScanPlan, payload []byte, i, end int, ctx *StreamContext) int {
	tracing := ctx.Span != nil
	probers := plan.Probers()
	ctx.shiftAttempts++
	if matchAt(probers, payload, i, &ctx.State, &ctx.scratch) {
		return i
	}
	if tracing {
		ctx.Span.Probe(i, payload[i], "", obs.OutcomeShift)
	}
	plan.Begin(&ctx.walk, payload, end, &ctx.State)
	for from := i + 1; ; {
		j := ctx.walk.Next(from)
		ctx.shiftAttempts += j - from
		if tracing {
			for o := from; o < j; o++ {
				ctx.Span.Probe(o, payload[o], "", obs.OutcomeShift)
			}
		}
		if j >= end {
			return end
		}
		ctx.shiftAttempts++
		if matchAt(probers, payload, j, &ctx.State, &ctx.scratch) {
			return j
		}
		if tracing {
			ctx.Span.Probe(j, payload[j], "", obs.OutcomeShift)
		}
		from = j + 1
	}
}

// matchAt tries pass 2's probers at payload[i:], in registry
// precedence order: protocols with stronger structural signatures win
// (STUN's magic cookie before ChannelData framing before the RTCP type
// range before QUIC and DTLS before the weak classic-STUN and RTP
// patterns). It reads the candidate's gate window once and calls only
// the validators whose gate admits it; a gate is necessary for its
// validator, so the rest could not match.
//
// A match is written through out, with its Offset set; a miss leaves
// out untouched, as every prober's does (DESIGN.md §11).
func matchAt(probers []proto.Prober, payload []byte, i int, st *proto.StreamState, out *Message) bool {
	c := proto.Candidate{Payload: payload, Offset: i}
	w := proto.Window(payload, i)
	for k := range probers {
		p := &probers[k]
		if !p.Gate.Admits(w) || !p.Gate.Fits(w, len(payload)-i) {
			continue
		}
		if p.Validate(c, st, out) {
			out.Offset = i
			return true
		}
	}
	return false
}
