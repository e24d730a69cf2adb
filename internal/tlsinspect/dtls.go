package tlsinspect

import (
	"errors"
	"fmt"
)

// DTLS record-layer and handshake parsing (RFC 6347 §4.1, RFC 9147
// retains the wire format for the unencrypted flights). The DPI probes
// DTLS-SRTP handshakes with it; like the SNI parser above, no
// cryptography is implemented — encrypted fragments stay opaque.

// DTLS record-layer constants.
const (
	// DTLSRecordHeaderLen is the fixed 13-byte record header: type,
	// version, epoch, 48-bit sequence number, length.
	DTLSRecordHeaderLen = 13
	// DTLSMaxFragmentLen bounds a record fragment (RFC 6347 carries
	// TLS's 2^14 limit forward).
	DTLSMaxFragmentLen = 1 << 14
	// DTLSHandshakeHeaderLen is the 12-byte DTLS handshake header:
	// type, 24-bit length, message sequence, 24-bit fragment offset,
	// 24-bit fragment length.
	DTLSHandshakeHeaderLen = 12
)

// DTLS protocol versions on the wire (one's complement of the TLS
// version, so they cannot collide with TLS records).
const (
	VersionDTLS10 uint16 = 0xfeff
	VersionDTLS12 uint16 = 0xfefd
)

// DTLS content types. The range 20-63 is the DTLS slice of the RFC 7983
// first-byte demultiplexing space; only 20-23 are assigned.
const (
	DTLSTypeChangeCipherSpec uint8 = 20
	DTLSTypeAlert            uint8 = 21
	DTLSTypeHandshake        uint8 = 22
	DTLSTypeApplicationData  uint8 = 23
)

// DTLS handshake message types used by the DTLS-SRTP flights.
const (
	DTLSHandshakeClientHello        uint8 = 1
	DTLSHandshakeServerHello        uint8 = 2
	DTLSHandshakeHelloVerifyRequest uint8 = 3
	DTLSHandshakeCertificate        uint8 = 11
	DTLSHandshakeServerKeyExchange  uint8 = 12
	DTLSHandshakeCertificateRequest uint8 = 13
	DTLSHandshakeServerHelloDone    uint8 = 14
	DTLSHandshakeCertificateVerify  uint8 = 15
	DTLSHandshakeClientKeyExchange  uint8 = 16
	DTLSHandshakeFinished           uint8 = 20
)

// ErrNotDTLS reports a byte region that is not a DTLS record.
var ErrNotDTLS = errors.New("tlsinspect: not a DTLS record")

// DTLSRecord is one parsed record-layer record. Fragment aliases the
// input buffer.
type DTLSRecord struct {
	ContentType    uint8
	Version        uint16
	Epoch          uint16
	SequenceNumber uint64 // 48-bit on the wire
	Fragment       []byte
}

// ByteLen returns the record's encoded size.
func (r *DTLSRecord) ByteLen() int { return DTLSRecordHeaderLen + len(r.Fragment) }

// DTLSDefinedContentType reports whether a record content type is
// assigned (RFC 6347 inherits TLS's 20-23).
func DTLSDefinedContentType(t uint8) bool {
	return t >= DTLSTypeChangeCipherSpec && t <= DTLSTypeApplicationData
}

// DTLSDefinedVersion reports whether v is a published DTLS version.
// DTLS 1.3 reuses 1.2's wire value in the plaintext record header
// (RFC 9147 §4), so 0xfefd covers both.
func DTLSDefinedVersion(v uint16) bool {
	return v == VersionDTLS10 || v == VersionDTLS12
}

// DTLSDefinedHandshakeType reports whether a handshake message type is
// assigned in DTLS 1.0/1.2.
func DTLSDefinedHandshakeType(t uint8) bool {
	switch t {
	case 0, DTLSHandshakeClientHello, DTLSHandshakeServerHello,
		DTLSHandshakeHelloVerifyRequest, DTLSHandshakeCertificate,
		DTLSHandshakeServerKeyExchange, DTLSHandshakeCertificateRequest,
		DTLSHandshakeServerHelloDone, DTLSHandshakeCertificateVerify,
		DTLSHandshakeClientKeyExchange, DTLSHandshakeFinished:
		return true
	}
	return false
}

// DTLSLooksLikeRecord reports whether b plausibly starts a DTLS record:
// an assigned content type and a DTLS version word. This is the cheap
// pre-filter; ParseDTLSRecord enforces the length fields.
func DTLSLooksLikeRecord(b []byte) bool {
	if len(b) < DTLSRecordHeaderLen {
		return false
	}
	if !DTLSDefinedContentType(b[0]) {
		return false
	}
	return DTLSDefinedVersion(uint16(b[1])<<8 | uint16(b[2]))
}

// ParseDTLSRecord parses one record at the start of b, returning it and
// the bytes consumed.
func ParseDTLSRecord(b []byte) (DTLSRecord, int, error) {
	if len(b) < DTLSRecordHeaderLen {
		return DTLSRecord{}, 0, ErrTruncated
	}
	r := DTLSRecord{
		ContentType: b[0],
		Version:     uint16(b[1])<<8 | uint16(b[2]),
		Epoch:       uint16(b[3])<<8 | uint16(b[4]),
		SequenceNumber: uint64(b[5])<<40 | uint64(b[6])<<32 | uint64(b[7])<<24 |
			uint64(b[8])<<16 | uint64(b[9])<<8 | uint64(b[10]),
	}
	if !DTLSDefinedContentType(r.ContentType) || !DTLSDefinedVersion(r.Version) {
		return DTLSRecord{}, 0, ErrNotDTLS
	}
	length := int(b[11])<<8 | int(b[12])
	if length == 0 || length > DTLSMaxFragmentLen {
		return DTLSRecord{}, 0, fmt.Errorf("%w: fragment length %d", ErrNotDTLS, length)
	}
	if DTLSRecordHeaderLen+length > len(b) {
		return DTLSRecord{}, 0, ErrTruncated
	}
	r.Fragment = b[DTLSRecordHeaderLen : DTLSRecordHeaderLen+length]
	return r, DTLSRecordHeaderLen + length, nil
}

// ParseDTLSRecords walks the record chain at the start of b and returns
// the records plus the total bytes consumed. At least one record must
// parse; the walk stops at the first byte that does not start a record.
func ParseDTLSRecords(b []byte) ([]DTLSRecord, int, error) {
	var out []DTLSRecord
	total := 0
	for total < len(b) {
		r, n, err := ParseDTLSRecord(b[total:])
		if err != nil {
			if len(out) == 0 {
				return nil, 0, err
			}
			break
		}
		out = append(out, r)
		total += n
	}
	if len(out) == 0 {
		return nil, 0, ErrNotDTLS
	}
	return out, total, nil
}

// DTLSHandshake is one parsed handshake header plus its fragment body
// (aliasing the record fragment).
type DTLSHandshake struct {
	Type           uint8
	Length         int // full message length across fragments
	MessageSeq     uint16
	FragmentOffset int
	FragmentLength int
	Body           []byte
}

// ParseDTLSHandshake parses the handshake header at the start of a
// plaintext handshake record fragment.
func ParseDTLSHandshake(b []byte) (DTLSHandshake, error) {
	if len(b) < DTLSHandshakeHeaderLen {
		return DTLSHandshake{}, ErrTruncated
	}
	h := DTLSHandshake{
		Type:           b[0],
		Length:         int(b[1])<<16 | int(b[2])<<8 | int(b[3]),
		MessageSeq:     uint16(b[4])<<8 | uint16(b[5]),
		FragmentOffset: int(b[6])<<16 | int(b[7])<<8 | int(b[8]),
		FragmentLength: int(b[9])<<16 | int(b[10])<<8 | int(b[11]),
	}
	if h.FragmentLength > len(b)-DTLSHandshakeHeaderLen {
		return DTLSHandshake{}, ErrTruncated
	}
	if h.FragmentOffset+h.FragmentLength > h.Length {
		return DTLSHandshake{}, fmt.Errorf("%w: fragment %d+%d exceeds message length %d",
			ErrNotDTLS, h.FragmentOffset, h.FragmentLength, h.Length)
	}
	h.Body = b[DTLSHandshakeHeaderLen : DTLSHandshakeHeaderLen+h.FragmentLength]
	return h, nil
}

// BuildDTLSRecord frames a fragment as one DTLS record.
func BuildDTLSRecord(contentType uint8, version, epoch uint16, seq uint64, fragment []byte) []byte {
	w := make([]byte, 0, DTLSRecordHeaderLen+len(fragment))
	w = append(w, contentType, byte(version>>8), byte(version),
		byte(epoch>>8), byte(epoch),
		byte(seq>>40), byte(seq>>32), byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq))
	w = append(w, byte(len(fragment)>>8), byte(len(fragment)))
	return append(w, fragment...)
}

// BuildDTLSHandshake frames a handshake body as one unfragmented DTLS
// handshake message.
func BuildDTLSHandshake(msgType uint8, messageSeq uint16, body []byte) []byte {
	n := len(body)
	w := make([]byte, 0, DTLSHandshakeHeaderLen+n)
	w = append(w, msgType,
		byte(n>>16), byte(n>>8), byte(n),
		byte(messageSeq>>8), byte(messageSeq),
		0, 0, 0, // fragment offset
		byte(n>>16), byte(n>>8), byte(n))
	return append(w, body...)
}

// BuildDTLSClientHelloBody constructs a minimal DTLS 1.2 ClientHello
// handshake body (which, unlike TLS, carries a cookie field) offering
// the DTLS-SRTP use_srtp extension (RFC 5764) with the
// SRTP_AES128_CM_HMAC_SHA1_80 profile.
func BuildDTLSClientHelloBody(random [32]byte, cookie []byte) []byte {
	w := make([]byte, 0, 96)
	w = append(w, 0xfe, 0xfd) // client_version DTLS 1.2
	w = append(w, random[:]...)
	w = append(w, 0)                 // session_id length
	w = append(w, byte(len(cookie))) // cookie length
	w = append(w, cookie...)         //
	w = append(w, 0, 4)              // cipher_suites length
	w = append(w, 0xc0, 0x2b)        // ECDHE-ECDSA-AES128-GCM-SHA256
	w = append(w, 0xc0, 0x2f)        // ECDHE-RSA-AES128-GCM-SHA256
	w = append(w, 1, 0)              // null compression
	w = append(w, 0, 9)              // extensions length
	w = append(w, 0, 14, 0, 5)       // use_srtp, length 5
	w = append(w, 0, 2, 0, 1)        // profiles: SRTP_AES128_CM_HMAC_SHA1_80
	w = append(w, 0)                 // MKI length
	return w
}

// BuildDTLSServerHelloBody constructs a minimal DTLS 1.2 ServerHello
// handshake body accepting the use_srtp profile.
func BuildDTLSServerHelloBody(random [32]byte) []byte {
	w := make([]byte, 0, 64)
	w = append(w, 0xfe, 0xfd) // server_version DTLS 1.2
	w = append(w, random[:]...)
	w = append(w, 0)           // session_id length
	w = append(w, 0xc0, 0x2b)  // chosen cipher suite
	w = append(w, 0)           // null compression
	w = append(w, 0, 9)        // extensions length
	w = append(w, 0, 14, 0, 5) // use_srtp, length 5
	w = append(w, 0, 2, 0, 1)  // profile: SRTP_AES128_CM_HMAC_SHA1_80
	w = append(w, 0)           // MKI length
	return w
}
