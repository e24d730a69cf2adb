package stun

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"

	"github.com/rtc-compliance/rtcc/internal/bytesutil"
)

// Address families in (XOR-)address attributes (RFC 8489 §14.1).
const (
	FamilyIPv4 uint8 = 0x01
	FamilyIPv6 uint8 = 0x02
)

// AddrPort pairs an IP address and port, decoded from an address-bearing
// attribute.
type AddrPort struct {
	Family uint8
	Addr   netip.Addr
	Port   uint16
}

// EncodeMappedAddress encodes a plain (non-XOR) address attribute value.
func EncodeMappedAddress(ap netip.AddrPort) []byte {
	addr := ap.Addr().Unmap()
	w := bytesutil.NewWriter(20)
	w.Uint8(0)
	if addr.Is4() {
		w.Uint8(FamilyIPv4)
		w.Uint16(ap.Port())
		a4 := addr.As4()
		w.Write(a4[:])
	} else {
		w.Uint8(FamilyIPv6)
		w.Uint16(ap.Port())
		a16 := addr.As16()
		w.Write(a16[:])
	}
	return w.Bytes()
}

// DecodeMappedAddress decodes a plain address attribute value.
func DecodeMappedAddress(v []byte) (AddrPort, error) {
	r := bytesutil.NewReader(v)
	r.Skip(1)
	fam := r.Uint8()
	port := r.Uint16()
	var addr netip.Addr
	switch fam {
	case FamilyIPv4:
		b := r.Bytes(4)
		if b != nil {
			addr = netip.AddrFrom4([4]byte(b))
		}
	case FamilyIPv6:
		b := r.Bytes(16)
		if b != nil {
			addr = netip.AddrFrom16([16]byte(b))
		}
	default:
		return AddrPort{Family: fam}, fmt.Errorf("stun: address family %#02x", fam)
	}
	if err := r.Err(); err != nil {
		return AddrPort{Family: fam}, err
	}
	return AddrPort{Family: fam, Addr: addr, Port: port}, nil
}

// EncodeXORAddress encodes an XOR-MAPPED/PEER/RELAYED-ADDRESS value for a
// message with the given transaction ID (RFC 8489 §14.2).
func EncodeXORAddress(ap netip.AddrPort, txID [12]byte) []byte {
	addr := ap.Addr().Unmap()
	w := bytesutil.NewWriter(20)
	w.Uint8(0)
	xport := ap.Port() ^ uint16(MagicCookie>>16)
	if addr.Is4() {
		w.Uint8(FamilyIPv4)
		w.Uint16(xport)
		a4 := addr.As4()
		x := binary.BigEndian.Uint32(a4[:]) ^ MagicCookie
		w.Uint32(x)
	} else {
		w.Uint8(FamilyIPv6)
		w.Uint16(xport)
		a16 := addr.As16()
		var mask [16]byte
		binary.BigEndian.PutUint32(mask[0:4], MagicCookie)
		copy(mask[4:], txID[:])
		for i := range a16 {
			a16[i] ^= mask[i]
		}
		w.Write(a16[:])
	}
	return w.Bytes()
}

// DecodeXORAddress decodes an XOR address attribute value.
func DecodeXORAddress(v []byte, txID [12]byte) (AddrPort, error) {
	r := bytesutil.NewReader(v)
	r.Skip(1)
	fam := r.Uint8()
	xport := r.Uint16()
	port := xport ^ uint16(MagicCookie>>16)
	var addr netip.Addr
	switch fam {
	case FamilyIPv4:
		b := r.Bytes(4)
		if b != nil {
			var a4 [4]byte
			binary.BigEndian.PutUint32(a4[:], binary.BigEndian.Uint32(b)^MagicCookie)
			addr = netip.AddrFrom4(a4)
		}
	case FamilyIPv6:
		b := r.Bytes(16)
		if b != nil {
			var a16, mask [16]byte
			binary.BigEndian.PutUint32(mask[0:4], MagicCookie)
			copy(mask[4:], txID[:])
			copy(a16[:], b)
			for i := range a16 {
				a16[i] ^= mask[i]
			}
			addr = netip.AddrFrom16(a16)
		}
	default:
		return AddrPort{Family: fam}, fmt.Errorf("stun: address family %#02x", fam)
	}
	if err := r.Err(); err != nil {
		return AddrPort{Family: fam}, err
	}
	return AddrPort{Family: fam, Addr: addr, Port: port}, nil
}

// ErrorCode is a decoded ERROR-CODE attribute value (RFC 8489 §14.8).
type ErrorCode struct {
	Code   int // e.g. 401
	Reason string
}

// EncodeErrorCode encodes an ERROR-CODE attribute value.
func EncodeErrorCode(e ErrorCode) []byte {
	w := bytesutil.NewWriter(4 + len(e.Reason))
	w.Uint16(0)
	w.Uint8(uint8(e.Code / 100))
	w.Uint8(uint8(e.Code % 100))
	w.Write([]byte(e.Reason))
	return w.Bytes()
}

// DecodeErrorCode decodes an ERROR-CODE attribute value.
func DecodeErrorCode(v []byte) (ErrorCode, error) {
	r := bytesutil.NewReader(v)
	r.Skip(2)
	class := r.Uint8()
	number := r.Uint8()
	if err := r.Err(); err != nil {
		return ErrorCode{}, err
	}
	return ErrorCode{Code: int(class)*100 + int(number), Reason: string(r.Rest())}, nil
}

// EncodeChannelNumber encodes the CHANNEL-NUMBER attribute value: 2-byte
// channel number plus RFFU zeros, total 4 bytes (RFC 8656 §18.1).
func EncodeChannelNumber(ch uint16) []byte {
	var v [4]byte
	binary.BigEndian.PutUint16(v[0:2], ch)
	return v[:]
}

// DecodeChannelNumber decodes a CHANNEL-NUMBER attribute value.
func DecodeChannelNumber(v []byte) (uint16, error) {
	if len(v) != 4 {
		return 0, fmt.Errorf("stun: CHANNEL-NUMBER value is %d bytes, want 4", len(v))
	}
	return binary.BigEndian.Uint16(v[0:2]), nil
}

// EncodeRequestedTransport encodes REQUESTED-TRANSPORT (protocol 17=UDP).
func EncodeRequestedTransport(proto uint8) []byte {
	return []byte{proto, 0, 0, 0}
}

// fingerprintXOR is XORed into the CRC-32 per RFC 8489 §14.7.
const fingerprintXOR = 0x5354554e

// Fingerprint computes the FINGERPRINT attribute value over msg, where
// msg is the full encoded message up to but not including the
// FINGERPRINT attribute itself (with the header length already counting
// the fingerprint attribute).
func Fingerprint(msg []byte) uint32 {
	return crc32.ChecksumIEEE(msg) ^ fingerprintXOR
}

// AddFingerprint appends a correct FINGERPRINT attribute to m and
// re-encodes it.
func AddFingerprint(m *Message) {
	// Encode with a placeholder so the header length covers the
	// fingerprint attribute, as the RFC requires.
	m.Add(AttrFingerprint, make([]byte, 4))
	raw := m.Encode()
	fp := Fingerprint(raw[:len(raw)-8])
	binary.BigEndian.PutUint32(m.Attributes[len(m.Attributes)-1].Value, fp)
	m.Encode()
}

// VerifyFingerprint checks a decoded message's FINGERPRINT attribute,
// taken to be the last attribute of m.Raw: it reports whether the
// value equals Fingerprint over the bytes before it. A message without
// a 4-byte FINGERPRINT does not verify.
func VerifyFingerprint(m *Message) bool {
	a := m.Get(AttrFingerprint)
	if a == nil || len(a.Value) != 4 {
		return false
	}
	raw := m.Raw
	// FINGERPRINT must be the last attribute; find its offset from the
	// end: 4 value + 4 TLV header.
	if len(raw) < 8 {
		return false
	}
	want := Fingerprint(raw[:len(raw)-8])
	return binary.BigEndian.Uint32(a.Value) == want
}

// MessageIntegrity computes the HMAC-SHA1 MESSAGE-INTEGRITY value over
// msg (the encoded message up to but not including the
// MESSAGE-INTEGRITY attribute) with the given key.
func MessageIntegrity(msg, key []byte) []byte {
	mac := hmac.New(sha1.New, key)
	mac.Write(msg)
	return mac.Sum(nil)
}

// AddMessageIntegrity appends a MESSAGE-INTEGRITY attribute computed
// with key and re-encodes m.
func AddMessageIntegrity(m *Message, key []byte) {
	m.Add(AttrMessageIntegrity, make([]byte, sha1.Size))
	raw := m.Encode()
	mi := MessageIntegrity(raw[:len(raw)-sha1.Size-4], key)
	copy(m.Attributes[len(m.Attributes)-1].Value, mi)
	m.Encode()
}
