// Package rtp implements the RTP wire format (RFC 3550) and the general
// header-extension mechanism (RFC 8285).
//
// As with the STUN codec, decoding is structurally strict but
// semantically permissive: payload types, extension profiles, and
// extension element IDs are parsed whatever their values, because the
// paper's DPI must surface non-compliant messages (FaceTime's 0x8001
// profiles, Discord's ID=0 elements) for the compliance layer to judge.
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/rtc-compliance/rtcc/internal/bytesutil"
)

// Version is the only RTP version in deployment (RFC 3550 §5.1).
const Version = 2

// HeaderLen is the minimal fixed header size.
const HeaderLen = 12

// Well-known extension profile identifiers (RFC 8285).
const (
	// ProfileOneByte marks the one-byte extension element form.
	ProfileOneByte uint16 = 0xBEDE
	// ProfileTwoByteBase is the base of the two-byte form; the low four
	// bits are "appbits" (0x1000-0x100F all select the two-byte form).
	ProfileTwoByteBase uint16 = 0x1000
	// ProfileTwoByteMask extracts the fixed part of two-byte profiles.
	ProfileTwoByteMask uint16 = 0xFFF0
)

// ExtensionElement is one RFC 8285 extension element.
type ExtensionElement struct {
	// ID is the local identifier: 4 bits in the one-byte form (1-14
	// usable, 0 = padding, 15 = reserved), 8 bits in the two-byte form.
	ID uint8
	// Payload is the element data. For one-byte elements the on-wire
	// length field is len(Payload)-1; we store the actual bytes.
	Payload []byte
}

// Extension is a decoded RTP header extension block.
type Extension struct {
	// Profile is the 16-bit "defined by profile" field.
	Profile uint16
	// Data is the raw extension payload (after the 4-byte extension
	// header), length a multiple of 4.
	Data []byte
	// Elements holds the parsed RFC 8285 elements when Profile selects
	// the one- or two-byte form and parsing succeeded; nil otherwise.
	Elements []ExtensionElement
	// ParseOK records whether element parsing succeeded (only
	// meaningful for RFC 8285 profiles).
	ParseOK bool
}

// Packet is one decoded RTP packet.
type Packet struct {
	Version        uint8
	Padding        bool
	PaddingLen     uint8 // last payload byte when Padding is set
	HasExtension   bool
	CSRCCount      uint8
	Marker         bool
	PayloadType    uint8
	SequenceNumber uint16
	Timestamp      uint32
	SSRC           uint32
	CSRC           []uint32
	Extension      *Extension
	// Payload is the media payload after padding removal.
	Payload []byte
	// Raw is the full encoded packet.
	Raw []byte
}

// Decoding errors.
var (
	ErrNotRTP    = errors.New("rtp: not an RTP packet")
	ErrTruncated = errors.New("rtp: truncated packet")
)

// Precomposed decode errors. The DPI calls Decode at every candidate
// offset of every datagram, so failures are the common case on that
// path; building a fmt.Errorf per attempt dominated the pipeline's
// allocation profile.
var (
	errShortPacket  = fmt.Errorf("%w: shorter than the fixed header", ErrTruncated)
	errBadVersion   = fmt.Errorf("%w: bad version", ErrNotRTP)
	errShortHeader  = fmt.Errorf("%w: header", ErrTruncated)
	errShortExt     = fmt.Errorf("%w: header extension", ErrTruncated)
	errEmptyPadding = fmt.Errorf("%w: padding bit set on empty payload", ErrTruncated)
	errBadPadding   = fmt.Errorf("%w: padding length exceeds payload", ErrTruncated)
)

// LooksLikeHeader reports whether b plausibly begins with an RTP packet:
// version 2 and enough bytes for the fixed header plus declared CSRCs and
// extension. It does not restrict the payload type (§4.1.1: the Peafowl
// payload-type restriction is deliberately removed).
func LooksLikeHeader(b []byte) bool {
	if len(b) < HeaderLen {
		return false
	}
	if b[0]>>6 != Version {
		return false
	}
	need := HeaderLen + int(b[0]&0x0f)*4
	if len(b) < need {
		return false
	}
	if b[0]&0x10 != 0 { // extension bit
		if len(b) < need+4 {
			return false
		}
		extWords := int(uint16(b[need+2])<<8 | uint16(b[need+3]))
		if len(b) < need+4+extWords*4 {
			return false
		}
	}
	return true
}

// Decode parses an RTP packet occupying all of b. RTP carries no length
// field, so the packet is assumed to extend to the end of the datagram
// (or to the end of the slice the DPI hands in). The returned packet's
// byte slices (Payload, Raw, extension data and elements) alias b: the
// caller must not mutate b while the packet is in use.
func Decode(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto is Decode into a caller-provided Packet, reusing its CSRC
// storage. The DPI probes candidate offsets far more often than it
// accepts one, so the probe path decodes into a stack Packet and copies
// to the heap only on acceptance. On error *p is partially overwritten.
func DecodeInto(p *Packet, b []byte) error {
	if len(b) < HeaderLen {
		return errShortPacket
	}
	r := bytesutil.NewReader(b)
	b0 := r.Uint8()
	if b0>>6 != Version {
		return errBadVersion
	}
	b1 := r.Uint8()
	*p = Packet{
		Version:        b0 >> 6,
		Padding:        b0&0x20 != 0,
		HasExtension:   b0&0x10 != 0,
		CSRCCount:      b0 & 0x0f,
		Marker:         b1&0x80 != 0,
		PayloadType:    b1 & 0x7f,
		SequenceNumber: r.Uint16(),
		Timestamp:      r.Uint32(),
		SSRC:           r.Uint32(),
		CSRC:           p.CSRC[:0],
	}
	for i := 0; i < int(p.CSRCCount); i++ {
		p.CSRC = append(p.CSRC, r.Uint32())
	}
	if p.HasExtension {
		profile := r.Uint16()
		words := r.Uint16()
		data := r.Bytes(int(words) * 4)
		if r.Failed() {
			return errShortExt
		}
		ext := &Extension{Profile: profile, Data: data}
		if profile == ProfileOneByte {
			ext.Elements, ext.ParseOK = parseOneByte(data)
		} else if profile&ProfileTwoByteMask == ProfileTwoByteBase {
			ext.Elements, ext.ParseOK = parseTwoByte(data)
		}
		p.Extension = ext
	}
	if err := r.Err(); err != nil {
		return errShortHeader
	}
	payload := r.Rest()
	if p.Padding {
		if len(payload) == 0 {
			return errEmptyPadding
		}
		pl := payload[len(payload)-1]
		if int(pl) > len(payload) || pl == 0 {
			return errBadPadding
		}
		p.PaddingLen = pl
		payload = payload[:len(payload)-int(pl)]
	}
	p.Payload = payload
	p.Raw = b
	return nil
}

// parseOneByte parses one-byte-form extension elements (RFC 8285 §4.2).
// ID=0 bytes are padding; per the RFC an ID of 0 must have no length, so
// a lone zero byte is consumed as padding. To surface Discord's
// violation (ID=0 with a length), a zero ID whose low nibble is nonzero
// is recorded as an element with that payload rather than rejected.
func parseOneByte(data []byte) ([]ExtensionElement, bool) {
	var elems []ExtensionElement
	i := 0
	for i < len(data) {
		b := data[i]
		if b == 0 { // padding byte
			i++
			continue
		}
		id := b >> 4
		length := int(b&0x0f) + 1
		if id == 15 {
			// Reserved: stop processing (RFC 8285 §4.2) but report what
			// was parsed so far.
			return elems, true
		}
		if i+1+length > len(data) {
			return elems, false
		}
		elems = append(elems, ExtensionElement{
			ID:      id,
			Payload: data[i+1 : i+1+length],
		})
		i += 1 + length
	}
	return elems, true
}

// parseTwoByte parses two-byte-form extension elements (RFC 8285 §4.3).
func parseTwoByte(data []byte) ([]ExtensionElement, bool) {
	var elems []ExtensionElement
	i := 0
	for i < len(data) {
		if data[i] == 0 { // padding
			i++
			continue
		}
		if i+2 > len(data) {
			return elems, false
		}
		id := data[i]
		length := int(data[i+1])
		if i+2+length > len(data) {
			return elems, false
		}
		elems = append(elems, ExtensionElement{
			ID:      id,
			Payload: data[i+2 : i+2+length],
		})
		i += 2 + length
	}
	return elems, true
}

// Encode serializes the packet. Version is forced to 2; the CSRC count,
// extension bit, and padding bit are derived from the populated fields.
// If Padding is true, PaddingLen zero bytes (with the count in the final
// byte) are appended.
func (p *Packet) Encode() []byte {
	b := p.AppendHeader(make([]byte, 0, HeaderLen+4*len(p.CSRC)+len(p.Payload)+16))
	b = append(b, p.Payload...)
	if p.Padding && p.PaddingLen > 0 {
		b = append(b, make([]byte, int(p.PaddingLen)-1)...)
		b = append(b, p.PaddingLen)
	}
	p.Raw = b
	return b
}

// AppendHeader appends the packet's header to b: the fixed header, the
// CSRCs and the extension, its data zero-padded to whole words. The
// payload and any padding are the caller's to append.
func (p *Packet) AppendHeader(b []byte) []byte {
	b0 := byte(Version << 6)
	if p.Padding && p.PaddingLen > 0 {
		b0 |= 0x20
	}
	if p.Extension != nil {
		b0 |= 0x10
	}
	b0 |= uint8(len(p.CSRC)) & 0x0f
	b1 := p.PayloadType & 0x7f
	if p.Marker {
		b1 |= 0x80
	}
	b = append(b, b0, b1)
	b = binary.BigEndian.AppendUint16(b, p.SequenceNumber)
	b = binary.BigEndian.AppendUint32(b, p.Timestamp)
	b = binary.BigEndian.AppendUint32(b, p.SSRC)
	for _, c := range p.CSRC {
		b = binary.BigEndian.AppendUint32(b, c)
	}
	if e := p.Extension; e != nil {
		b = binary.BigEndian.AppendUint16(b, e.Profile)
		lenAt := len(b)
		b = append(b, 0, 0)
		if e.Data == nil && e.Elements != nil {
			b = appendElements(b, e)
		} else {
			b = append(b, e.Data...)
		}
		// Pad the extension payload to a whole number of words.
		for (len(b)-lenAt-2)%4 != 0 {
			b = append(b, 0)
		}
		binary.BigEndian.PutUint16(b[lenAt:], uint16((len(b)-lenAt-2)/4))
	}
	return b
}

// appendElements appends Elements in the form selected by Profile.
func appendElements(b []byte, e *Extension) []byte {
	if e.Profile == ProfileOneByte {
		for _, el := range e.Elements {
			n := len(el.Payload)
			if n == 0 {
				n = 1 // one-byte form cannot express zero-length
			}
			b = append(b, el.ID<<4|uint8(n-1)&0x0f)
			b = append(b, el.Payload...)
		}
		return b
	}
	for _, el := range e.Elements {
		b = append(b, el.ID, uint8(len(el.Payload)))
		b = append(b, el.Payload...)
	}
	return b
}

// HeaderSize reports the byte length of the header (fixed + CSRC +
// extension) of the decoded packet.
func (p *Packet) HeaderSize() int {
	n := HeaderLen + len(p.CSRC)*4
	if p.Extension != nil {
		n += 4 + len(p.Extension.Data)
	}
	return n
}
