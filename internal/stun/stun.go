// Package stun implements the STUN and TURN wire formats.
//
// STUN (RFC 3489 classic, RFC 5389, RFC 8489) and TURN (RFC 5766,
// RFC 8656) share one message format: a 20-byte header followed by
// TLV-encoded attributes padded to 4-byte boundaries. TURN additionally
// defines the ChannelData framing. This package provides:
//
//   - Decode/Encode for STUN messages, including the RFC 3489 "classic"
//     variant that predates the magic cookie;
//   - typed helpers for the attributes the compliance rules inspect
//     (XOR-MAPPED-ADDRESS, ERROR-CODE, CHANNEL-NUMBER, ...);
//   - the registries of defined message types and attribute types per
//     RFC revision (registry.go), which the compliance checker consults;
//   - ChannelData framing.
//
// Decoding is deliberately permissive about *which* types and attribute
// values appear — the paper's methodology (§4.1.1) requires parsing
// non-compliant messages (undefined types like 0x0801, undefined
// attributes like 0x4003) so that the compliance layer can judge them.
// Structural integrity (lengths, padding, bounds) is still enforced.
package stun

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/rtc-compliance/rtcc/internal/bytesutil"
)

// MagicCookie is the fixed value in the second header word (RFC 5389 §6).
const MagicCookie uint32 = 0x2112A442

// HeaderLen is the fixed STUN header size.
const HeaderLen = 20

// MessageType is the 14-bit STUN message type (class + method packed per
// RFC 5389 §6). Values with either of the two most significant bits set
// are not STUN messages.
type MessageType uint16

// Class is the 2-bit STUN message class.
type Class uint8

// Message classes.
const (
	ClassRequest    Class = 0b00
	ClassIndication Class = 0b01
	ClassSuccess    Class = 0b10
	ClassError      Class = 0b11
)

func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassIndication:
		return "indication"
	case ClassSuccess:
		return "success response"
	case ClassError:
		return "error response"
	}
	return "unknown"
}

// Method is the 12-bit STUN method.
type Method uint16

// Methods defined across STUN/TURN RFCs.
const (
	MethodBinding           Method = 0x001 // RFC 5389
	MethodSharedSecret      Method = 0x002 // RFC 3489 (deprecated by 5389)
	MethodAllocate          Method = 0x003 // RFC 5766
	MethodRefresh           Method = 0x004 // RFC 5766
	MethodSend              Method = 0x006 // RFC 5766
	MethodData              Method = 0x007 // RFC 5766
	MethodCreatePermission  Method = 0x008 // RFC 5766
	MethodChannelBind       Method = 0x009 // RFC 5766
	MethodConnect           Method = 0x00a // RFC 6062
	MethodConnectionBind    Method = 0x00b // RFC 6062
	MethodConnectionAttempt Method = 0x00c // RFC 6062
	MethodGoogPing          Method = 0x080 // provisional registry expansion
)

// MessageTypeOf packs a method and class into a message type.
func MessageTypeOf(m Method, c Class) MessageType {
	// Method bits M11..M0 interleave with class bits C1,C0 as:
	// M11..M7 | C1 | M6..M4 | C0 | M3..M0
	mm := uint16(m)
	cc := uint16(c)
	return MessageType((mm&0x0f80)<<2 | (cc&0b10)<<7 | (mm&0x0070)<<1 | (cc&0b01)<<4 | mm&0x000f)
}

// Method extracts the 12-bit method.
func (t MessageType) Method() Method {
	v := uint16(t)
	return Method((v&0x3e00)>>2 | (v&0x00e0)>>1 | v&0x000f)
}

// Class extracts the 2-bit class.
func (t MessageType) Class() Class {
	v := uint16(t)
	return Class((v&0x0100)>>7 | (v&0x0010)>>4)
}

// Common full message types.
const (
	TypeBindingRequest         = MessageType(0x0001)
	TypeBindingIndication      = MessageType(0x0011)
	TypeBindingSuccess         = MessageType(0x0101)
	TypeBindingError           = MessageType(0x0111)
	TypeSharedSecretRequest    = MessageType(0x0002)
	TypeAllocateRequest        = MessageType(0x0003)
	TypeAllocateSuccess        = MessageType(0x0103)
	TypeAllocateError          = MessageType(0x0113)
	TypeRefreshRequest         = MessageType(0x0004)
	TypeRefreshSuccess         = MessageType(0x0104)
	TypeSendIndication         = MessageType(0x0016)
	TypeDataIndication         = MessageType(0x0017)
	TypeCreatePermissionReq    = MessageType(0x0008)
	TypeCreatePermissionOK     = MessageType(0x0108)
	TypeCreatePermissionErr    = MessageType(0x0118)
	TypeChannelBindRequest     = MessageType(0x0009)
	TypeChannelBindSuccess     = MessageType(0x0109)
	TypeConnectRequest         = MessageType(0x000a)
	TypeConnectionAttemptIndic = MessageType(0x001c)
)

func (t MessageType) String() string {
	if name, ok := messageTypeNames[t]; ok {
		return fmt.Sprintf("%s (0x%04x)", name, uint16(t))
	}
	return fmt.Sprintf("0x%04x", uint16(t))
}

// AttrType is a 16-bit STUN attribute type.
type AttrType uint16

// Attribute types referenced by the codec, generators, and compliance
// rules. The full defined-set lives in registry.go.
const (
	AttrMappedAddress     AttrType = 0x0001
	AttrResponseAddress   AttrType = 0x0002
	AttrChangeRequest     AttrType = 0x0003
	AttrSourceAddress     AttrType = 0x0004
	AttrChangedAddress    AttrType = 0x0005
	AttrUsername          AttrType = 0x0006
	AttrPassword          AttrType = 0x0007
	AttrMessageIntegrity  AttrType = 0x0008
	AttrErrorCode         AttrType = 0x0009
	AttrUnknownAttributes AttrType = 0x000a
	AttrReflectedFrom     AttrType = 0x000b
	AttrChannelNumber     AttrType = 0x000c
	AttrLifetime          AttrType = 0x000d
	AttrXORPeerAddress    AttrType = 0x0012
	AttrData              AttrType = 0x0013
	AttrRealm             AttrType = 0x0014
	AttrNonce             AttrType = 0x0015
	AttrXORRelayedAddress AttrType = 0x0016
	AttrRequestedFamily   AttrType = 0x0017
	AttrEvenPort          AttrType = 0x0018
	AttrRequestedTranspt  AttrType = 0x0019
	AttrDontFragment      AttrType = 0x001a
	AttrXORMappedAddress  AttrType = 0x0020
	AttrReservationToken  AttrType = 0x0022
	AttrPriority          AttrType = 0x0024
	AttrUseCandidate      AttrType = 0x0025
	AttrPadding           AttrType = 0x0026
	AttrResponsePort      AttrType = 0x0027
	AttrSoftware          AttrType = 0x8022
	AttrAlternateServer   AttrType = 0x8023
	AttrFingerprint       AttrType = 0x8028
	AttrICEControlled     AttrType = 0x8029
	AttrICEControlling    AttrType = 0x802a
	AttrResponseOrigin    AttrType = 0x802b
	AttrOtherAddress      AttrType = 0x802c
	AttrGoogNetworkInfo   AttrType = 0xc057
)

func (a AttrType) String() string {
	if name, ok := attrTypeNames[a]; ok {
		return fmt.Sprintf("%s (0x%04x)", name, uint16(a))
	}
	return fmt.Sprintf("0x%04x", uint16(a))
}

// Attribute is one TLV-encoded attribute. Value holds the unpadded value
// bytes; DeclaredLen preserves the on-wire length field.
type Attribute struct {
	Type        AttrType
	Value       []byte
	DeclaredLen uint16
}

// Message is one decoded STUN/TURN message.
type Message struct {
	Type MessageType
	// Length is the declared attribute-region length from the header.
	Length uint16
	// Classic is true when the message was encoded/decoded in RFC 3489
	// mode: the magic-cookie word is part of a 128-bit transaction ID.
	Classic bool
	// CookieWord holds the raw second header word. Equal to MagicCookie
	// for RFC 5389+ messages; for classic messages it is the first word
	// of the 128-bit transaction ID.
	CookieWord uint32
	// TransactionID is the 96-bit transaction ID (RFC 5389+). Classic
	// 128-bit IDs are CookieWord ++ TransactionID.
	TransactionID [12]byte
	Attributes    []Attribute
	// Raw is the full encoded message (header + attributes), set by
	// Decode; Encode regenerates it.
	Raw []byte
}

// Decoding errors.
var (
	ErrNotSTUN      = errors.New("stun: not a STUN message")
	ErrTruncated    = errors.New("stun: truncated message")
	ErrBadAttribute = errors.New("stun: malformed attribute")
)

// LooksLikeHeader reports whether b begins with a plausible STUN header:
// top two bits zero and a length field that is a multiple of 4 and fits
// within b. This is the DPI candidate pattern (restrictions on message
// type removed per §4.1.1).
func LooksLikeHeader(b []byte) bool {
	if len(b) < HeaderLen {
		return false
	}
	if b[0]&0xc0 != 0 {
		return false
	}
	length := binary.BigEndian.Uint16(b[2:4])
	if length%4 != 0 {
		return false
	}
	return int(length) <= len(b)-HeaderLen
}

// Decode parses one STUN message from the start of b. Trailing bytes
// beyond the declared length are ignored (callers use DecodedLen).
// Messages whose cookie word differs from MagicCookie are decoded in
// classic (RFC 3489) mode.
func Decode(b []byte) (*Message, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if b[0]&0xc0 != 0 {
		return nil, fmt.Errorf("%w: first byte %#02x", ErrNotSTUN, b[0])
	}
	r := bytesutil.NewReader(b)
	m := &Message{
		Type:   MessageType(r.Uint16()),
		Length: r.Uint16(),
	}
	m.CookieWord = r.Uint32()
	m.Classic = m.CookieWord != MagicCookie
	copy(m.TransactionID[:], r.Bytes(12))
	if int(m.Length) > len(b)-HeaderLen {
		return nil, fmt.Errorf("%w: declared length %d exceeds %d available", ErrTruncated, m.Length, len(b)-HeaderLen)
	}
	attrRegion := b[HeaderLen : HeaderLen+int(m.Length)]
	ar := bytesutil.NewReader(attrRegion)
	for ar.Remaining() >= 4 {
		at := AttrType(ar.Uint16())
		al := ar.Uint16()
		padded := (int(al) + 3) &^ 3
		if ar.Remaining() < padded {
			// The value (with padding) exceeds the declared message
			// length: structurally malformed.
			return nil, fmt.Errorf("%w: attribute %v declares %d bytes with %d remaining", ErrBadAttribute, at, al, ar.Remaining())
		}
		val := ar.BytesCopy(int(al))
		ar.Skip(padded - int(al))
		m.Attributes = append(m.Attributes, Attribute{Type: at, Value: val, DeclaredLen: al})
	}
	if ar.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in attribute region", ErrBadAttribute, ar.Remaining())
	}
	m.Raw = b[:HeaderLen+int(m.Length)]
	return m, nil
}

// DecodedLen reports the total encoded size of the message (header plus
// declared attribute region).
func (m *Message) DecodedLen() int { return HeaderLen + int(m.Length) }

// Get returns the first attribute of the given type, or nil.
func (m *Message) Get(t AttrType) *Attribute {
	for i := range m.Attributes {
		if m.Attributes[i].Type == t {
			return &m.Attributes[i]
		}
	}
	return nil
}

// Add appends an attribute with the given value.
func (m *Message) Add(t AttrType, value []byte) {
	m.Attributes = append(m.Attributes, Attribute{Type: t, Value: value, DeclaredLen: uint16(len(value))})
}

// Encode serializes the message. The Length header field is recomputed
// from the attributes; CookieWord is emitted verbatim for classic
// messages and forced to MagicCookie otherwise.
func (m *Message) Encode() []byte {
	w := bytesutil.NewWriter(HeaderLen + 64)
	w.Uint16(uint16(m.Type))
	w.Uint16(0) // patched below
	cookie := m.CookieWord
	if !m.Classic {
		cookie = MagicCookie
	}
	w.Uint32(cookie)
	w.Write(m.TransactionID[:])
	for _, a := range m.Attributes {
		w.Uint16(uint16(a.Type))
		w.Uint16(uint16(len(a.Value)))
		w.Write(a.Value)
		w.Pad(4)
	}
	w.SetUint16(2, uint16(w.Len()-HeaderLen))
	m.Length = uint16(w.Len() - HeaderLen)
	m.Raw = w.Bytes()
	return m.Raw
}

// ChannelData is a TURN ChannelData frame (RFC 8656 §12.4).
type ChannelData struct {
	ChannelNumber uint16
	Data          []byte
}

// ChannelNumber validity ranges. RFC 5766 allowed 0x4000-0x7FFF;
// RFC 8656 narrowed the usable range to 0x4000-0x4FFF.
const (
	ChannelMin     = 0x4000
	ChannelMax5766 = 0x7FFF
	ChannelMax8656 = 0x4FFF
)

// LooksLikeChannelData reports whether b plausibly begins with a TURN
// ChannelData frame: channel number in the 0x4000-0x7FFF range and a
// length that fits the buffer.
func LooksLikeChannelData(b []byte) bool {
	if len(b) < 4 {
		return false
	}
	ch := binary.BigEndian.Uint16(b[0:2])
	if ch < ChannelMin || ch > ChannelMax5766 {
		return false
	}
	length := binary.BigEndian.Uint16(b[2:4])
	return int(length) <= len(b)-4
}

// DecodeChannelData parses a ChannelData frame from the start of b.
func DecodeChannelData(b []byte) (*ChannelData, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: channeldata header", ErrTruncated)
	}
	ch := binary.BigEndian.Uint16(b[0:2])
	if ch < ChannelMin || ch > ChannelMax5766 {
		return nil, fmt.Errorf("%w: channel number %#04x", ErrNotSTUN, ch)
	}
	length := binary.BigEndian.Uint16(b[2:4])
	if int(length) > len(b)-4 {
		return nil, fmt.Errorf("%w: channeldata length %d exceeds %d", ErrTruncated, length, len(b)-4)
	}
	data := make([]byte, length)
	copy(data, b[4:4+length])
	return &ChannelData{ChannelNumber: ch, Data: data}, nil
}

// Encode serializes the ChannelData frame (no padding; UDP transport).
func (c *ChannelData) Encode() []byte {
	b := AppendChannelDataHeader(make([]byte, 0, 4+len(c.Data)), c.ChannelNumber, len(c.Data))
	return append(b, c.Data...)
}

// AppendChannelDataHeader appends the 4-byte header of a ChannelData
// frame on channel ch carrying n bytes of data, so the caller can
// write the data in place after it.
func AppendChannelDataHeader(b []byte, ch uint16, n int) []byte {
	b = binary.BigEndian.AppendUint16(b, ch)
	return binary.BigEndian.AppendUint16(b, uint16(n))
}

// DecodedLen reports the encoded frame size.
func (c *ChannelData) DecodedLen() int { return 4 + len(c.Data) }
