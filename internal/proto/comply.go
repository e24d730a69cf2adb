package proto

import (
	"fmt"
	"time"
)

// Criterion numbers the five compliance checks of the paper's model
// (§4.2). Evaluation is strictly sequential: the first failed criterion
// classifies the message and later criteria are not evaluated.
type Criterion int

// The five criteria, in evaluation order.
const (
	CritNone        Criterion = 0 // compliant
	CritMessageType Criterion = 1
	CritHeader      Criterion = 2
	CritAttrType    Criterion = 3
	CritAttrValue   Criterion = 4
	CritSemantics   Criterion = 5
)

func (c Criterion) String() string {
	switch c {
	case CritNone:
		return "compliant"
	case CritMessageType:
		return "message type definition"
	case CritHeader:
		return "header field validity"
	case CritAttrType:
		return "attribute type validity"
	case CritAttrValue:
		return "attribute value validity"
	case CritSemantics:
		return "syntax and semantic integrity"
	}
	return fmt.Sprintf("criterion %d", int(c))
}

// Verdict is the compliance outcome for one message.
type Verdict struct {
	Compliant bool
	// Failed identifies the first criterion violated (CritNone when
	// compliant).
	Failed Criterion
	// Reason is a human-readable explanation of the violation.
	Reason string
}

// Ok returns a compliant verdict.
func Ok() Verdict { return Verdict{Compliant: true} }

// Fail returns a verdict failing the given criterion.
func Fail(c Criterion, format string, args ...any) Verdict {
	return Verdict{Failed: c, Reason: fmt.Sprintf(format, args...)}
}

// TypeKey identifies a message type for the message-type-based metric:
// the protocol family plus the label the paper's tables use (hex STUN
// type, RTP payload type number, RTCP packet type number, QUIC header
// kind, DTLS record kind, or "ChannelData").
type TypeKey struct {
	Protocol ID
	Label    string
}

func (k TypeKey) String() string { return k.Protocol.String() + " " + k.Label }

// Checked pairs one message with its verdict.
type Checked struct {
	Protocol ID
	Type     TypeKey
	Verdict  Verdict
	// Bytes is the message's encoded size, for volume accounting.
	Bytes int
	// Timestamp is the datagram capture time.
	Timestamp time.Time
}

// Checker binds per-stream sessions to the registry whose drivers judge
// them. It holds no judging state of its own: every criterion-5 rule
// is stream-scoped (Session), so one checker may serve any number of
// streams, and a per-stream checker judges identically to a shared one.
type Checker struct {
	reg *Registry
}

// NewChecker returns a checker judging against the given registry (nil
// selects the default registry).
func NewChecker(reg *Registry) *Checker {
	if reg == nil {
		reg = Default()
	}
	return &Checker{reg: reg}
}

// Registry returns the registry the checker judges against.
func (c *Checker) Registry() *Registry { return c.reg }

// Session holds per-stream state for criterion 5. Create one per
// transport stream and feed it messages in capture order. Protocol
// drivers keep their stream-scoped semantic state (STUN transaction
// tracking, SRTCP index monotonicity, QUIC connection IDs, DTLS
// handshake progress) in per-ID slots.
type Session struct {
	checker *Checker
	slots   [MaxIDs]any
	// scratch is the reused Check output buffer; see Check.
	scratch []Checked
}

// NewSession returns a per-stream session.
func (c *Checker) NewSession() *Session { return &Session{checker: c} }

// Checker returns the checker the session belongs to.
func (s *Session) Checker() *Checker { return s.checker }

// Slot returns a protocol's private per-stream state.
func (s *Session) Slot(id ID) any { return s.slots[id] }

// SetSlot stores a protocol's private per-stream state.
func (s *Session) SetSlot(id ID, v any) { s.slots[id] = v }

// Check evaluates one extracted message by dispatching to the
// registered handler, returning one Checked per protocol data unit.
// Messages of unregistered protocols yield nil.
//
// The returned slice is a per-session scratch buffer, valid only until
// the next Check on the same session; callers must copy any Checked
// values they retain. Sessions are per-stream
// and single-writer, so this is safe by the pipeline's ownership
// discipline (DESIGN.md §14). Check tallies nothing: callers fold the
// returned verdicts into their own statistics.
func (s *Session) Check(m Message, ts time.Time) []Checked {
	h := s.checker.reg.Handler(m.Protocol)
	if h == nil {
		return nil
	}
	out := h.Comply(s.scratch[:0], m, ts, s)
	s.scratch = out
	return out
}
