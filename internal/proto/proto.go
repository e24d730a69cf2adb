// Package proto defines the pluggable wire-protocol registry behind the
// measurement pipeline. One protocol is one Handler: a set of
// wire-format probers (Probe for the stream-level pass 1, Validate for
// the offset-shifting pass 2 of Algorithm 1), a Comply judge applying
// the paper's five-criterion model, and metadata (name, family,
// wire-format fingerprint, demultiplexing precedence).
//
// The DPI engine (internal/dpi), the compliance checker
// (internal/compliance), the report tables (internal/report), and the
// behavioural-findings scanners (internal/core) all iterate a Registry
// instead of switching on protocol constants, so adding a protocol is
// one leaf package that registers a Handler — no engine edits.
package proto

import (
	"time"

	"github.com/rtc-compliance/rtcc/internal/quicwire"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

// ID identifies a registered protocol. TURN messages share the STUN
// format and are reported as STUN, with ChannelData frames tagged
// ChannelData; reporting folds both into the STUN/TURN family.
type ID uint8

// The registered protocol identifiers. Values are stable: they index
// per-protocol state slots and appear in serialized fixtures.
const (
	Unknown ID = iota
	STUN
	ChannelData
	RTP
	RTCP
	QUIC
	DTLS
)

// MaxIDs bounds the ID space; per-protocol state arrays are this long.
const MaxIDs = 16

// String returns the protocol's registered name ("unknown" when no
// handler with this ID is registered in the default registry).
func (p ID) String() string {
	if m, ok := Default().Meta(p); ok {
		return m.Name
	}
	return "unknown"
}

// Family returns the reporting family the protocol folds into
// (ChannelData reports under STUN/TURN, as the paper's tables do).
// Unregistered IDs are their own family.
func (p ID) Family() ID {
	if m, ok := Default().Meta(p); ok {
		return m.Family
	}
	return p
}

// Meta describes one registered protocol.
type Meta struct {
	// ID is the protocol's stable identifier.
	ID ID
	// Name is the human-readable name the report tables use.
	Name string
	// Slug is the metrics label value.
	Slug string
	// Family is the reporting family the protocol folds into (itself
	// for most protocols; STUN for ChannelData).
	Family ID
	// Order positions the protocol's family among report columns
	// (the paper's order: STUN/TURN, RTP, RTCP, QUIC, then additions).
	Order int
	// Fingerprint is a one-line description of the wire-format
	// signature the probers anchor on, for documentation and the
	// proto-list tooling.
	Fingerprint string
	// Fuzz names the fuzz target covering the protocol's wire parser,
	// as "<package>:<FuzzTarget>". The proto-list golden test fails a
	// registration whose target is missing from the Makefile
	// fuzz-smoke job.
	Fuzz string
}

// Candidate is a candidate message start: a whole datagram payload and
// the byte offset a prober examines. Probers read Payload[Offset:].
type Candidate struct {
	Payload []byte
	Offset  int
}

// Bytes returns the payload window starting at the candidate offset.
func (c Candidate) Bytes() []byte { return c.Payload[c.Offset:] }

// Message is one validated protocol message extracted from a datagram.
type Message struct {
	Protocol ID
	// Offset is the byte offset within the UDP payload.
	Offset int
	// Length is the validated message length in bytes.
	Length int

	// Exactly one of the following is set, matching Protocol.
	STUN        *stun.Message
	ChannelData *stun.ChannelData
	RTP         *rtp.Packet
	RTCP        []*rtcp.Packet
	QUIC        *quicwire.Header

	// RTCPTrailing holds bytes after the last RTCP packet in a compound
	// region (SRTCP trailers, proprietary suffixes).
	RTCPTrailing []byte

	// Body holds the decoded form for protocols registered beyond the
	// typed fields above (the DTLS driver stores its record slice here).
	Body any
}

// Prober is one wire-format fingerprint of a protocol. A handler may
// register several (STUN registers the magic-cookie form and the
// classic RFC 3489 form at different precedences).
type Prober struct {
	// ID is the owning protocol, filled in by the registry.
	ID ID
	// Precedence orders probing across all registered fingerprints:
	// lower probes first. The ordering encodes the RFC 5761/7983
	// demultiplexing rules — strong structural signatures (STUN magic
	// cookie, ChannelData framing, the RTCP type range) before weak
	// ones (RTP's version bits).
	Precedence int
	// Pass1 includes the prober in the stream-level pass 1: Probe is
	// called at each not-yet-consumed payload offset.
	Pass1 bool
	// First is the one-byte wire-format fingerprint: it reports
	// whether a candidate starting with byte b could possibly match
	// (RFC 7983-style demultiplexing). It must be a superset of the
	// prober's own acceptance — Probe/Validate still reject fully —
	// and lets the registry build the per-first-byte dispatch tables
	// the scan loops use. Nil means the prober is tried at every
	// offset.
	First func(b byte) bool
	// Probe advances pass 1 at one offset. A prober with a strong
	// signature validates structurally against sc.Scratch and returns
	// the length of the matched span so the engine skips it; a
	// weak-signature prober (RTP) tallies validation evidence into sc
	// and returns false. Nil when Pass1 is false.
	Probe func(c Candidate, sc *ScanState) (int, bool)
	// Validate runs the fingerprint plus stream-state validation at one
	// offset during pass 2. On a match it writes the extracted message
	// to out and returns true; on a miss it returns false and leaves out
	// untouched, so a miss costs no Message copy. The engine sets the
	// message's Offset.
	Validate func(c Candidate, st *StreamState, out *Message) bool
}

// Handler is one protocol's registered implementation.
type Handler interface {
	// Meta describes the protocol.
	Meta() Meta
	// Probers returns the protocol's wire-format fingerprints.
	Probers() []Prober
	// Comply judges one extracted message under the five-criterion
	// model, appending one Checked per protocol data unit (an RTCP
	// compound region yields one per packet) to dst and returning the
	// extended slice. The append-style signature lets Session.Check
	// reuse one scratch slice per stream, keeping the per-message
	// compliance path allocation-free.
	Comply(dst []Checked, m Message, ts time.Time, s *Session) []Checked
}

// Accepter is implemented by handlers that post-process an accepted
// message against its full datagram before the engine commits it (the
// RTP driver truncates a message when a strong second candidate starts
// inside its claimed payload, and records sequence state).
type Accepter interface {
	Accept(payload []byte, m Message, st *StreamState) Message
}

// ConsumeProbe adapts a Validate function into the pass-1 Probe shape
// for strong-signature probers: a structural match against the scratch
// state consumes the message's span. The match lands in the scan
// state's scratch Message, which pass 1 only reads the length of.
func ConsumeProbe(validate func(Candidate, *StreamState, *Message) bool) func(Candidate, *ScanState) (int, bool) {
	return func(c Candidate, sc *ScanState) (int, bool) {
		if !validate(c, &sc.Scratch, &sc.msg) {
			return 0, false
		}
		return sc.msg.Length, true
	}
}
