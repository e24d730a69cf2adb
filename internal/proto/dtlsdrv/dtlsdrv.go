// Package dtlsdrv registers DTLS with the wire-protocol registry — the
// extensibility proof of the registry design: a record-layer prober
// over the tlsinspect parser and handshake-sequence semantic checks,
// added without touching any engine code.
package dtlsdrv

import (
	"fmt"
	"time"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

func init() {
	proto.Register(handler{})
}

// Precedence orders DTLS between QUIC and the weak probers. Its first
// bytes, the assigned content types 20-23 inside RFC 7983's DTLS slice
// 20-63, overlap only the STUN cookie form's 0-63, which probes first.
const Precedence = 45

type handler struct{}

func (handler) Meta() proto.Meta {
	return proto.Meta{
		ID:          proto.DTLS,
		Name:        "DTLS",
		Slug:        "dtls",
		Family:      proto.DTLS,
		Order:       5,
		Fingerprint: "RFC 7983 first byte 20-23 + DTLS version word, record chain consuming the datagram with plausible epochs",
		Fuzz:        "./internal/proto/dtlsdrv:FuzzDTLSProbe",
	}
}

// gate is Match's raw-byte precondition: an assigned content type
// (20-23), and a version word starting 0xFE, as every DTLS version's
// does.
var gate = proto.Gate{Mask: 0xFCFF << 48, Want: 0x14FE << 48}

func (handler) Probers() []proto.Prober {
	return []proto.Prober{{
		Precedence: Precedence,
		Gate:       gate,
		Probe:      proto.ConsumeProbe(Match),
		Validate:   Match,
	}}
}

// maxPlausibleEpoch bounds record epochs: a DTLS-SRTP association
// rekeys a handful of times at most, while random payload bytes draw
// uniform 16-bit epochs.
const maxPlausibleEpoch = 8

// Match matches a DTLS record chain. The fingerprint is strict — an
// assigned content type, a DTLS version word, and length fields that
// walk the chain to consume the candidate exactly (DTLS records fill
// their datagram) — so encrypted media and proprietary headers never
// masquerade as DTLS.
func Match(c proto.Candidate, st *proto.StreamState, out *proto.Message) bool {
	b := c.Bytes()
	if !tlsinspect.DTLSLooksLikeRecord(b) {
		return false
	}
	recs, consumed, err := tlsinspect.ParseDTLSRecords(b)
	if err != nil || consumed != len(b) {
		return false
	}
	for i := range recs {
		r := &recs[i]
		if r.Epoch > maxPlausibleEpoch {
			return false
		}
		// Plaintext handshake fragments must carry a well-formed
		// handshake header with an assigned message type.
		if r.ContentType == tlsinspect.DTLSTypeHandshake && r.Epoch == 0 {
			h, err := tlsinspect.ParseDTLSHandshake(r.Fragment)
			if err != nil || !tlsinspect.DTLSDefinedHandshakeType(h.Type) {
				return false
			}
		}
	}
	*out = proto.Message{Protocol: proto.DTLS, Length: consumed, Body: recs}
	return true
}

// session is DTLS's per-stream handshake-progress state for the
// criterion-5 sequence checks.
type session struct {
	sawClientHello bool
	sawServerHello bool
	sawCCS         bool
}

func sess(s *proto.Session) *session {
	if v := s.Slot(proto.DTLS); v != nil {
		return v.(*session)
	}
	st := &session{}
	s.SetSlot(proto.DTLS, st)
	return st
}

func dtlsHandshakeName(t uint8) string {
	switch t {
	case 0:
		return "HelloRequest"
	case tlsinspect.DTLSHandshakeClientHello:
		return "ClientHello"
	case tlsinspect.DTLSHandshakeServerHello:
		return "ServerHello"
	case tlsinspect.DTLSHandshakeHelloVerifyRequest:
		return "HelloVerifyRequest"
	case tlsinspect.DTLSHandshakeCertificate:
		return "Certificate"
	case tlsinspect.DTLSHandshakeServerKeyExchange:
		return "ServerKeyExchange"
	case tlsinspect.DTLSHandshakeCertificateRequest:
		return "CertificateRequest"
	case tlsinspect.DTLSHandshakeServerHelloDone:
		return "ServerHelloDone"
	case tlsinspect.DTLSHandshakeCertificateVerify:
		return "CertificateVerify"
	case tlsinspect.DTLSHandshakeClientKeyExchange:
		return "ClientKeyExchange"
	case tlsinspect.DTLSHandshakeFinished:
		return "Finished"
	}
	return fmt.Sprintf("handshake type %d", t)
}

// Comply applies the five criteria to each record in a DTLS chain.
// Encrypted fragments (epoch > 0) are judged on record structure and
// the handshake-sequence rules only.
func (handler) Comply(dst []proto.Checked, m proto.Message, ts time.Time, s *proto.Session) []proto.Checked {
	recs, _ := m.Body.([]tlsinspect.DTLSRecord)
	st := sess(s)
	for i := range recs {
		r := &recs[i]
		c := proto.Checked{
			Protocol:  proto.DTLS,
			Type:      proto.TypeKey{Protocol: proto.DTLS, Label: recordLabel(r)},
			Bytes:     r.ByteLen(),
			Timestamp: ts,
		}
		c.Verdict = st.recordVerdict(r)
		dst = append(dst, c)
	}
	return dst
}

func recordLabel(r *tlsinspect.DTLSRecord) string {
	switch r.ContentType {
	case tlsinspect.DTLSTypeChangeCipherSpec:
		return "change cipher spec"
	case tlsinspect.DTLSTypeAlert:
		return "alert"
	case tlsinspect.DTLSTypeApplicationData:
		return "application data"
	case tlsinspect.DTLSTypeHandshake:
		if r.Epoch > 0 {
			return "handshake (encrypted)"
		}
		if h, err := tlsinspect.ParseDTLSHandshake(r.Fragment); err == nil {
			return "handshake " + dtlsHandshakeName(h.Type)
		}
		return "handshake (malformed)"
	}
	return fmt.Sprintf("content type %d", r.ContentType)
}

func (st *session) recordVerdict(r *tlsinspect.DTLSRecord) proto.Verdict {
	// Criterion 1: content type must be assigned (structurally
	// guaranteed by the prober; re-checked for messages judged without
	// extraction, as in unit tests) and plaintext handshake message
	// types must be defined.
	if !tlsinspect.DTLSDefinedContentType(r.ContentType) {
		return proto.Fail(proto.CritMessageType, "DTLS content type %d is not assigned", r.ContentType)
	}

	// Criterion 2: header fields. The version word is established by
	// the prober; epoch use must match the content type — application
	// data is always encrypted, so epoch 0 is a protocol violation.
	if !tlsinspect.DTLSDefinedVersion(r.Version) {
		return proto.Fail(proto.CritHeader, "DTLS version %#04x is not published", r.Version)
	}
	if r.ContentType == tlsinspect.DTLSTypeApplicationData && r.Epoch == 0 {
		return proto.Fail(proto.CritHeader, "application data record in epoch 0 (before any cipher change)")
	}

	if r.ContentType == tlsinspect.DTLSTypeHandshake && r.Epoch == 0 {
		h, err := tlsinspect.ParseDTLSHandshake(r.Fragment)
		if err != nil {
			return proto.Fail(proto.CritHeader, "handshake header malformed: %v", err)
		}
		if !tlsinspect.DTLSDefinedHandshakeType(h.Type) {
			return proto.Fail(proto.CritMessageType, "DTLS handshake type %d is not assigned", h.Type)
		}
		// Criteria 3-4: hello bodies must hold their declared TLV
		// structure (cookie, cipher-suite list, extensions).
		if v := helloBodyChecks(h); !v.Compliant {
			return v
		}
		// Criterion 5: handshake-sequence integrity across the stream.
		switch h.Type {
		case tlsinspect.DTLSHandshakeClientHello:
			st.sawClientHello = true
		case tlsinspect.DTLSHandshakeServerHello:
			if !st.sawClientHello {
				return proto.Fail(proto.CritSemantics, "ServerHello with no preceding ClientHello on this stream")
			}
			st.sawServerHello = true
		case tlsinspect.DTLSHandshakeHelloVerifyRequest:
			if !st.sawClientHello {
				return proto.Fail(proto.CritSemantics, "HelloVerifyRequest with no preceding ClientHello on this stream")
			}
		}
	}

	switch r.ContentType {
	case tlsinspect.DTLSTypeChangeCipherSpec:
		// Criterion 5: a cipher change only follows a hello exchange.
		if !st.sawClientHello {
			return proto.Fail(proto.CritSemantics, "ChangeCipherSpec before any handshake flight")
		}
		st.sawCCS = true
	case tlsinspect.DTLSTypeApplicationData:
		// Criterion 5: application data requires a completed handshake
		// (DTLS-SRTP associations never skip the cipher change).
		if !st.sawCCS {
			return proto.Fail(proto.CritSemantics, "application data before ChangeCipherSpec completed the handshake")
		}
	}
	return proto.Ok()
}

// helloBodyChecks validates the TLV structure of plaintext ClientHello
// and ServerHello bodies: criterion 3 for truncated structure, 4 for
// value-level violations.
func helloBodyChecks(h tlsinspect.DTLSHandshake) proto.Verdict {
	if h.Type != tlsinspect.DTLSHandshakeClientHello {
		return proto.Ok()
	}
	b := h.Body
	// client_version(2) random(32) session_id cookie cipher_suites
	// compression extensions.
	if len(b) < 2+32+1 {
		return proto.Fail(proto.CritAttrType, "ClientHello body truncated at %d bytes", len(b))
	}
	i := 2 + 32
	sidLen := int(b[i])
	i += 1 + sidLen
	if i >= len(b) {
		return proto.Fail(proto.CritAttrType, "ClientHello truncated inside session_id")
	}
	cookieLen := int(b[i])
	i += 1 + cookieLen
	if i+2 > len(b) {
		return proto.Fail(proto.CritAttrType, "ClientHello truncated inside cookie")
	}
	csLen := int(b[i])<<8 | int(b[i+1])
	if csLen == 0 || csLen%2 != 0 {
		return proto.Fail(proto.CritAttrValue, "ClientHello cipher-suite list length %d is not a nonzero even number", csLen)
	}
	i += 2 + csLen
	if i >= len(b) {
		return proto.Fail(proto.CritAttrType, "ClientHello truncated inside cipher suites")
	}
	cmLen := int(b[i])
	if cmLen == 0 {
		return proto.Fail(proto.CritAttrValue, "ClientHello offers no compression methods (null is mandatory)")
	}
	return proto.Ok()
}
