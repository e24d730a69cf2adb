// Package stundrv registers the STUN/TURN protocol family with the
// wire-protocol registry: the magic-cookie and classic RFC 3489 probers,
// the TURN ChannelData framing prober, and the five-criterion compliance
// judges, ported intact from the original hardcoded engine.
package stundrv

import (
	"fmt"
	"time"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

func init() {
	proto.Register(stunHandler{})
	proto.Register(channelDataHandler{})
}

// Demultiplexing precedences of the STUN family's fingerprints. The
// magic cookie is the strongest signature in the pipeline and probes
// first; the cookie-less classic form is weak and probes after QUIC.
const (
	PrecedenceCookie      = 10
	PrecedenceChannelData = 20
	PrecedenceClassic     = 50
)

type stunHandler struct{}

func (stunHandler) Meta() proto.Meta {
	return proto.Meta{
		ID:          proto.STUN,
		Name:        "STUN/TURN",
		Slug:        "stun",
		Family:      proto.STUN,
		Order:       1,
		Fingerprint: "two zero top bits + RFC 5389 magic cookie 0x2112A442, or classic RFC 3489 header with exact declared length",
		Fuzz:        "./internal/stun:FuzzDecode",
	}
}

// cookieGate pins the magic cookie at bytes 4-7 and the two zero top
// bits; the cookie makes it an anchor in both scan plans.
var cookieGate = proto.Gate{Mask: 0xC0000000_FFFFFFFF, Want: uint64(stun.MagicCookie)}

// classicGate is matchClassic's raw-byte precondition. Every defined
// method puts the type's first byte in 0x00-0x03 and its second below
// 0x20; stun.LooksLikeHeader needs a declared length (bytes 2-3) that
// is a multiple of 4; and the message must end exactly at the payload
// end, so the length frames a 20-byte header with no slack.
var classicGate = proto.Gate{Mask: 0xFCE00003 << 32, Bias: stun.HeaderLen}

func (stunHandler) Probers() []proto.Prober {
	return []proto.Prober{
		{
			Precedence: PrecedenceCookie,
			Gate:       cookieGate,
			Probe:      proto.ConsumeProbe(MatchCookie),
			Validate:   MatchCookie,
		},
		{
			Precedence: PrecedenceClassic,
			Gate:       classicGate,
			Validate:   matchClassic,
		},
	}
}

// MatchCookie matches RFC 5389+ STUN: the magic cookie is the
// validation anchor. The message type is deliberately unrestricted
// (§4.1.1) so undefined types like WhatsApp's 0x0801 surface. Exported
// for the RTP driver's strong-second-candidate scan.
func MatchCookie(c proto.Candidate, st *proto.StreamState, out *proto.Message) bool {
	b := c.Bytes()
	if !stun.LooksLikeHeader(b) {
		return false
	}
	cookie := uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
	if cookie != stun.MagicCookie {
		return false
	}
	m, err := stun.Decode(b)
	if err != nil {
		return false
	}
	st.SawSTUN = true
	*out = proto.Message{Protocol: proto.STUN, Length: m.DecodedLen(), STUN: m}
	return true
}

// matchClassic matches RFC 3489 STUN, which lacks the magic cookie.
// Without the cookie the false-positive risk is high, so validation
// requires the declared length to consume the remaining payload exactly
// and the attribute region to walk cleanly; the paper's equivalent is
// its "valid length field" heuristic.
func matchClassic(c proto.Candidate, st *proto.StreamState, out *proto.Message) bool {
	b := c.Bytes()
	if !stun.LooksLikeHeader(b) {
		return false
	}
	declared := int(b[2])<<8 | int(b[3])
	if declared != len(b)-stun.HeaderLen {
		return false
	}
	m, err := stun.Decode(b)
	if err != nil {
		return false
	}
	if !m.Classic {
		return false // cookie case handled by MatchCookie
	}
	// Without the magic cookie anchor, only registered methods are
	// plausible: every classic-STUN deployment the paper observed
	// (Zoom's RFC 3489 usage) uses defined methods, while zero-filled
	// or random regions frequently parse as "type 0x0000" messages.
	if _, defined := stun.DefinedMessageType(m.Type); !defined {
		return false
	}
	st.SawSTUN = true
	*out = proto.Message{Protocol: proto.STUN, Length: m.DecodedLen(), STUN: m}
	return true
}

type channelDataHandler struct{}

func (channelDataHandler) Meta() proto.Meta {
	return proto.Meta{
		ID:          proto.ChannelData,
		Name:        "ChannelData",
		Slug:        "channel_data",
		Family:      proto.STUN,
		Order:       1,
		Fingerprint: "RFC 8656 channel number 0x4000-0x4FFF with a framed length consuming the payload (≤3 bytes padding)",
		Fuzz:        "./internal/stun:FuzzDecodeChannelData",
	}
}

// channelDataGate is matchChannelData's raw-byte precondition: channel
// numbers 0x4000-0x4FFF put the first byte in 0x40-0x4F, and the
// length at bytes 2-3 frames a 4-byte header ending at most 3 bytes of
// padding before the payload end.
var channelDataGate = proto.Gate{Mask: 0xF0 << 56, Want: 0x40 << 56, Bias: 4, Slack: 3}

func (channelDataHandler) Probers() []proto.Prober {
	return []proto.Prober{{
		Precedence: PrecedenceChannelData,
		Gate:       channelDataGate,
		Ready:      channelDataReady,
		Probe:      proto.ConsumeProbe(matchChannelData),
		Validate:   matchChannelData,
	}}
}

// channelDataReady reports whether ChannelData can match in stream
// state st: in stream-validated mode only after the stream carried
// STUN.
func channelDataReady(st *proto.StreamState) bool {
	return st.ValidatedSSRC == nil || st.SawSTUN
}

// matchChannelData matches TURN ChannelData framing. The channel range
// is restricted to RFC 8656's 0x4000-0x4FFF: the wider RFC 5766 range
// would swallow FaceTime's 0x6000 proprietary header, which the paper
// classifies as proprietary (§5.3).
func matchChannelData(c proto.Candidate, st *proto.StreamState, out *proto.Message) bool {
	b := c.Bytes()
	if len(b) < 4 {
		return false
	}
	// TURN ChannelData only ever flows on a socket that previously
	// carried the STUN allocation handshake (RFC 8656 §12). In
	// stream-validated mode, require prior STUN on the stream; this
	// rejects channel-range byte windows inside proprietary payloads.
	if !channelDataReady(st) {
		return false
	}
	ch := uint16(b[0])<<8 | uint16(b[1])
	if ch < stun.ChannelMin || ch > stun.ChannelMax8656 {
		return false
	}
	length := int(b[2])<<8 | int(b[3])
	// Real ChannelData frames carry at least a minimal protocol message
	// (an RTP header is 12 bytes); tiny declared lengths are counter or
	// flag bytes of proprietary payloads that happen to sit in the
	// channel range.
	if length < 12 {
		return false
	}
	total := 4 + length
	if total > len(b) {
		return false
	}
	// Allow up to 3 bytes of padding after the frame; more implies the
	// length field is not a real ChannelData length.
	if len(b)-total > 3 {
		return false
	}
	cd, err := stun.DecodeChannelData(b)
	if err != nil {
		return false
	}
	*out = proto.Message{Protocol: proto.ChannelData, Length: cd.DecodedLen(), ChannelData: cd}
	return true
}

// session is the STUN family's per-stream criterion-5 state, shared by
// the STUN and ChannelData handlers (ChannelBind requests bind the
// channels ChannelData frames are judged against).
type session struct {
	txSeen      map[[12]byte]*txState
	prevReqTx   [12]byte
	havePrevReq bool
	seqTxRun    int
	allocDone   bool // an Allocate success has been observed
	allocReqs   int  // Allocate requests after completion
	boundChans  map[uint16]bool
}

type txState struct {
	requests  int
	responded bool
	firstSeen time.Time
}

func sess(s *proto.Session) *session {
	if v := s.Slot(proto.STUN); v != nil {
		return v.(*session)
	}
	st := &session{
		txSeen:     make(map[[12]byte]*txState),
		boundChans: make(map[uint16]bool),
	}
	s.SetSlot(proto.STUN, st)
	return st
}

// repeatThreshold is how many same-transaction requests without any
// response constitute a semantic violation (FaceTime retransmits its
// modified Binding Requests once per second for a minute; genuine STUN
// retransmission uses exponential backoff and stops at Rc=7).
const repeatThreshold = 3

// allocPingPongThreshold is how many post-completion Allocate requests
// on one stream mark the Allocate-as-connectivity-check pattern.
const allocPingPongThreshold = 2

func stunTypeKey(t stun.MessageType) proto.TypeKey {
	return proto.TypeKey{Protocol: proto.STUN, Label: fmt.Sprintf("0x%04x", uint16(t))}
}

// Comply applies the five criteria to a STUN/TURN message.
func (stunHandler) Comply(dst []proto.Checked, m proto.Message, ts time.Time, s *proto.Session) []proto.Checked {
	msg := m.STUN
	st := sess(s)
	c := proto.Checked{
		Protocol:  proto.STUN,
		Type:      stunTypeKey(msg.Type),
		Bytes:     m.Length,
		Timestamp: ts,
	}
	st.trackTransaction(msg, ts)
	st.trackChannelBind(msg)
	c.Verdict = st.stunVerdict(msg, ts)
	return append(dst, c)
}

// trackTransaction records request/response pairing state before
// judging, so responses unblock their requests regardless of order of
// evaluation within a datagram.
func (st *session) trackTransaction(msg *stun.Message, ts time.Time) {
	tx, ok := st.txSeen[msg.TransactionID]
	if !ok {
		tx = &txState{firstSeen: ts}
		st.txSeen[msg.TransactionID] = tx
	}
	switch msg.Type.Class() {
	case stun.ClassRequest:
		tx.requests++
	case stun.ClassSuccess, stun.ClassError:
		tx.responded = true
	}
	if msg.Type == stun.TypeAllocateSuccess {
		st.allocDone = true
	}
	if msg.Type == stun.TypeAllocateRequest && st.allocDone {
		st.allocReqs++
	}
}

// trackChannelBind records channels bound on this stream for the
// ChannelData semantic check.
func (st *session) trackChannelBind(msg *stun.Message) {
	if msg.Type != stun.TypeChannelBindRequest {
		return
	}
	if a := msg.Get(stun.AttrChannelNumber); a != nil && len(a.Value) == 4 {
		ch, err := stun.DecodeChannelNumber(a.Value)
		if err == nil {
			st.boundChans[ch] = true
		}
	}
}

func (st *session) stunVerdict(msg *stun.Message, ts time.Time) proto.Verdict {
	// Criterion 1: message type defined in any published revision.
	if _, defined := stun.DefinedMessageType(msg.Type); !defined {
		return proto.Fail(proto.CritMessageType, "message type %v is not defined in any STUN/TURN specification", msg.Type)
	}

	// Criterion 2: header field validity. The magic cookie (or RFC 3489
	// classic form) is structurally established by the DPI; here we
	// check the transaction ID is neither degenerate nor sequential
	// (the paper's example: "a Transaction ID that appears sequential
	// rather than randomly generated").
	if msg.TransactionID == ([12]byte{}) {
		return proto.Fail(proto.CritHeader, "all-zero transaction ID is not a valid random identifier")
	}
	if msg.Type.Class() == stun.ClassRequest {
		if st.havePrevReq && msg.TransactionID == txidSuccessor(st.prevReqTx) {
			st.seqTxRun++
		} else if msg.TransactionID != st.prevReqTx {
			st.seqTxRun = 0
		}
		st.prevReqTx = msg.TransactionID
		st.havePrevReq = true
		if st.seqTxRun >= 2 {
			return proto.Fail(proto.CritHeader, "transaction IDs increase sequentially rather than being randomly generated")
		}
	}

	// Criterion 3: every attribute type must be defined.
	for _, a := range msg.Attributes {
		if _, defined := stun.DefinedAttr(a.Type); !defined {
			return proto.Fail(proto.CritAttrType, "attribute %v is not defined in any STUN/TURN specification", a.Type)
		}
	}

	// Criterion 4: attribute values and placement.
	for i, a := range msg.Attributes {
		if v := checkAttrValue(msg, a, i == len(msg.Attributes)-1); !v.Compliant {
			return v
		}
	}

	// Criterion 5: syntax and semantic integrity.
	return st.stunSemantics(msg, ts)
}

// checkAttrValue validates a defined attribute's value shape and its
// placement in this message type; last reports that a is the message's
// final attribute.
func checkAttrValue(msg *stun.Message, a stun.Attribute, last bool) proto.Verdict {
	if !stun.AttrLenValid(a.Type, len(a.Value)) {
		return proto.Fail(proto.CritAttrValue, "attribute %v has invalid length %d", a.Type, len(a.Value))
	}
	if stun.AddressBearing(a.Type) {
		if len(a.Value) < 4 {
			return proto.Fail(proto.CritAttrValue, "address attribute %v too short", a.Type)
		}
		fam := a.Value[1]
		switch fam {
		case stun.FamilyIPv4:
			if len(a.Value) != 8 {
				return proto.Fail(proto.CritAttrValue, "attribute %v declares IPv4 but is %d bytes", a.Type, len(a.Value))
			}
		case stun.FamilyIPv6:
			if len(a.Value) != 20 {
				return proto.Fail(proto.CritAttrValue, "attribute %v declares IPv6 but is %d bytes", a.Type, len(a.Value))
			}
		default:
			// The FaceTime ALTERNATE-SERVER case: family 0x00.
			return proto.Fail(proto.CritAttrValue, "attribute %v has invalid address family %#02x", a.Type, fam)
		}
	}
	if a.Type == stun.AttrErrorCode && len(a.Value) >= 4 {
		class := a.Value[2]
		number := a.Value[3]
		if class < 3 || class > 6 || number > 99 {
			return proto.Fail(proto.CritAttrValue, "ERROR-CODE class %d number %d out of range", class, number)
		}
	}
	if a.Type == stun.AttrChannelNumber && len(a.Value) == 4 {
		ch := uint16(a.Value[0])<<8 | uint16(a.Value[1])
		if ch < stun.ChannelMin || ch > stun.ChannelMax5766 {
			// The FaceTime Data-indication case carries 0x0000 here.
			return proto.Fail(proto.CritAttrValue, "CHANNEL-NUMBER value %#04x outside 0x4000-0x7FFF", ch)
		}
	}
	// Placement rules.
	if a.Type == stun.AttrFingerprint {
		// RFC 8489 §14.7: FINGERPRINT is the last attribute, and its
		// value is the CRC-32 of the message before it XOR 0x5354554e.
		if !last {
			return proto.Fail(proto.CritAttrValue, "FINGERPRINT is not the last attribute")
		}
		if !stun.VerifyFingerprint(msg) {
			return proto.Fail(proto.CritAttrValue, "FINGERPRINT value does not match the message's CRC-32")
		}
	}
	cls := msg.Type.Class()
	if (cls == stun.ClassSuccess || cls == stun.ClassError) && stun.RequestOnly(a.Type) {
		return proto.Fail(proto.CritAttrValue, "request-only attribute %v present in a %v", a.Type, cls)
	}
	if msg.Type == stun.TypeDataIndication && !stun.AllowedInDataIndication(a.Type) {
		return proto.Fail(proto.CritAttrValue, "attribute %v is not permitted in a Data indication", a.Type)
	}
	return proto.Ok()
}

// txidSuccessor returns id incremented by one as a 96-bit big-endian
// integer.
func txidSuccessor(id [12]byte) [12]byte {
	for i := len(id) - 1; i >= 0; i-- {
		id[i]++
		if id[i] != 0 {
			break
		}
	}
	return id
}

// stunSemantics applies the cross-message criterion-5 rules.
func (st *session) stunSemantics(msg *stun.Message, ts time.Time) proto.Verdict {
	tx := st.txSeen[msg.TransactionID]
	if msg.Type.Class() == stun.ClassRequest && tx != nil {
		// Repeated identical-transaction requests with no response ever
		// observed: FaceTime's keepalive-via-Binding-Request pattern.
		// Genuine retransmission backs off and stops; a steady stream of
		// repeats past the threshold with zero responses is repurposing.
		if tx.requests > repeatThreshold && !tx.responded {
			return proto.Fail(proto.CritSemantics, "request repeated %d times with transaction ID %x and no response; Binding/Allocate requests are not keepalives", tx.requests, msg.TransactionID[:4])
		}
	}
	if msg.Type == stun.TypeAllocateRequest && st.allocReqs > allocPingPongThreshold {
		// The Google Meet case: periodic Allocate requests after the
		// allocation already succeeded act as connectivity checks,
		// which Allocate is not intended for (paper §4.2, example 5).
		return proto.Fail(proto.CritSemantics, "repeated Allocate requests after successful allocation form a connectivity-check ping-pong")
	}
	return proto.Ok()
}

// Comply validates a TURN ChannelData frame.
func (channelDataHandler) Comply(dst []proto.Checked, m proto.Message, ts time.Time, s *proto.Session) []proto.Checked {
	cd := m.ChannelData
	st := sess(s)
	c := proto.Checked{
		Protocol:  proto.ChannelData,
		Type:      proto.TypeKey{Protocol: proto.STUN, Label: "ChannelData"},
		Bytes:     m.Length,
		Timestamp: ts,
	}
	switch {
	// Criterion 2: channel number range (the framing itself guarantees
	// 0x4000-0x7FFF; RFC 8656 narrows to 0x4000-0x4FFF but RFC 5766
	// allowed the full range, and the paper accepts any published
	// revision).
	case cd.ChannelNumber < stun.ChannelMin || cd.ChannelNumber > stun.ChannelMax5766:
		c.Verdict = proto.Fail(proto.CritHeader, "channel number %#04x outside any published range", cd.ChannelNumber)
	// Criterion 5: data on a channel never bound with ChannelBind on
	// this stream repurposes the framing (the FaceTime case).
	case !st.boundChans[cd.ChannelNumber]:
		c.Verdict = proto.Fail(proto.CritSemantics, "ChannelData on channel %#04x with no prior ChannelBind on this stream", cd.ChannelNumber)
	default:
		c.Verdict = proto.Ok()
	}
	return append(dst, c)
}
