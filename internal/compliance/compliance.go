// Package compliance applies the paper's five-criterion compliance
// model (§4.2). Every message extracted by the DPI engine is checked,
// in order, against:
//
//  1. Message Type Definition — is the type defined in any published
//     revision of the protocol's specification?
//  2. Header Field Validity — do the remaining header fields conform?
//  3. Attribute Type Validity — is every TLV attribute (or header
//     extension, for RTP) a defined type?
//  4. Attribute Value Validity — do defined attributes carry values of
//     the right shape, in message types where they are allowed?
//  5. Syntax and Semantic Integrity — cross-field and cross-message
//     behaviour: transaction pairing, Allocate ping-pong patterns,
//     unbound ChannelData channels, SRTCP trailer structure, repeated
//     same-transaction requests without responses.
//
// Evaluation is strictly sequential: the first failed criterion
// classifies the message as non-compliant and later criteria are not
// evaluated (the paper's cascading-error rule).
//
// The per-protocol judges live in the protocol drivers under
// internal/proto, and every type here is an alias of the registry's
// own (Criterion, Verdict, TypeKey, Checked, Session, Checker).
// Verdicts are tallied by the caller (report.AppStats); the pipeline
// records its compliance metrics from those tallies once per finished
// analysis (internal/core), never per verdict.
package compliance

import "github.com/rtc-compliance/rtcc/internal/proto"

// Criterion numbers the five checks.
type Criterion = proto.Criterion

// The five criteria, in evaluation order.
const (
	CritNone        = proto.CritNone // compliant
	CritMessageType = proto.CritMessageType
	CritHeader      = proto.CritHeader
	CritAttrType    = proto.CritAttrType
	CritAttrValue   = proto.CritAttrValue
	CritSemantics   = proto.CritSemantics
)

// Verdict is the compliance outcome for one message.
type Verdict = proto.Verdict

// TypeKey identifies a message type for the message-type-based metric:
// the protocol family plus the label the paper's tables use (hex STUN
// type, RTP payload type number, RTCP packet type number, QUIC header
// kind, DTLS record kind, or "ChannelData").
type TypeKey = proto.TypeKey

// Checked pairs one message with its verdict.
type Checked = proto.Checked

// Session holds per-stream state for criterion 5. Create one per
// transport stream and feed it messages in capture order via Check;
// the caller records the returned verdicts, in its statistics and, when
// tracing, in the stream's decision trace.
type Session = proto.Session

// Checker binds sessions to the protocol registry that judges them.
type Checker = proto.Checker

// NewChecker returns a checker judging against the default protocol
// registry.
func NewChecker() *Checker { return proto.NewChecker(nil) }

// NewCheckerWith returns a checker judging against the given registry
// (nil selects the default registry).
func NewCheckerWith(reg *proto.Registry) *Checker { return proto.NewChecker(reg) }
