// Package quicdrv registers QUIC with the wire-protocol registry: the
// invariants-based long-header prober, the context-gated short-header
// prober (known DCID at the established length), and the header-rule
// compliance judge.
package quicdrv

import (
	"encoding/binary"
	"time"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/quicwire"
)

func init() {
	proto.Register(handler{})
}

// Precedence orders QUIC after the RTC protocols' stronger fingerprints
// (RFC 7983 would put it at first-byte 128+, but the RTP/RTCP version
// bits overlap) and before the weak classic-STUN and RTP probers.
const Precedence = 40

type handler struct{}

func (handler) Meta() proto.Meta {
	return proto.Meta{
		ID:          proto.QUIC,
		Name:        "QUIC",
		Slug:        "quic",
		Family:      proto.QUIC,
		Order:       4,
		Fingerprint: "long header: form+fixed bits with version 1 or Version Negotiation; short header: known DCID at the established length",
		Fuzz:        "./internal/quicwire:FuzzParseLong",
	}
}

func (handler) Probers() []proto.Prober {
	return []proto.Prober{{
		Precedence: Precedence,
		// Long headers set the form bit; short headers clear it and set
		// the fixed bit.
		First:    func(b byte) bool { return b&0x80 != 0 || b&0xc0 == 0x40 },
		Validate: match,
	}}
}

// streamState is QUIC's per-stream DPI state: connection IDs introduced
// by long headers, and the DCID length short headers must use.
type streamState struct {
	cids        map[string]bool
	shortCIDLen int
}

func state(st *proto.StreamState) *streamState {
	if v := st.Slot(proto.QUIC); v != nil {
		return v.(*streamState)
	}
	s := &streamState{cids: make(map[string]bool)}
	st.SetSlot(proto.QUIC, s)
	return s
}

// match matches QUIC long headers structurally, and short headers only
// when the stream has established QUIC state (a known DCID at the
// expected length), mirroring the paper's DCID/SCID consistency
// heuristic.
func match(c proto.Candidate, st *proto.StreamState, out *proto.Message) bool {
	b := c.Bytes()
	if quicwire.IsLongHeader(b) {
		// Every offset whose first byte has the form bit set reaches
		// here, so reject on the raw bytes first: a long header is at
		// least 7 bytes, and only version 1 and Version Negotiation
		// (version 0) are accepted below. The checks after the parse
		// still confirm every survivor.
		if len(b) < 7 {
			return false
		}
		if v := binary.BigEndian.Uint32(b[1:5]); v != quicwire.Version1 && v != quicwire.VersionNegotiation {
			return false
		}
		// Probe into a stack Header (CIDs aliasing b); most candidate
		// offsets are rejected, so the heap copy waits for acceptance.
		var probe quicwire.Header
		if quicwire.ParseLongInto(&probe, b) != nil {
			return false
		}
		if probe.Version != quicwire.Version1 && probe.Version != quicwire.VersionNegotiation {
			return false
		}
		if probe.Version == quicwire.Version1 && !probe.FixedBit {
			return false
		}
		if probe.Version == quicwire.VersionNegotiation {
			// A real Version Negotiation packet lists at least one
			// nonzero version; all-zero regions of proprietary payloads
			// would otherwise masquerade as VN.
			if len(probe.SupportedVersions) == 0 {
				return false
			}
			for _, v := range probe.SupportedVersions {
				if v == 0 {
					return false
				}
			}
		}
		length := len(b) // Retry and VN consume the datagram
		if probe.Version == quicwire.Version1 && probe.Type != quicwire.TypeRetry {
			length = probe.HeaderLen + int(probe.PayloadLength)
		}
		qs := state(st)
		if len(probe.DCID) > 0 {
			qs.cids[string(probe.DCID)] = true
			qs.shortCIDLen = len(probe.DCID)
		}
		if len(probe.SCID) > 0 {
			qs.cids[string(probe.SCID)] = true
		}
		h := new(quicwire.Header)
		*h = probe
		h.CloneCIDs()
		*out = proto.Message{Protocol: proto.QUIC, Length: length, QUIC: h}
		return true
	}
	// Short header: requires context.
	qs, _ := st.Slot(proto.QUIC).(*streamState)
	if qs == nil || qs.shortCIDLen == 0 || len(b) < 1+qs.shortCIDLen {
		return false
	}
	if b[0]&0xc0 != 0x40 { // form 0, fixed bit 1
		return false
	}
	h, err := quicwire.ParseShort(b, qs.shortCIDLen)
	if err != nil || !qs.cids[string(h.DCID)] {
		return false
	}
	*out = proto.Message{Protocol: proto.QUIC, Length: len(b), QUIC: h}
	return true
}

func quicTypeKey(h *quicwire.Header) proto.TypeKey {
	label := "short header"
	if h.Long {
		if h.Version == quicwire.VersionNegotiation {
			label = "version negotiation"
		} else {
			label = "long header " + h.Type.String()
		}
	}
	return proto.TypeKey{Protocol: proto.QUIC, Label: label}
}

// session is QUIC's per-stream compliance state: connection IDs seen in
// judged headers.
type session struct {
	cids map[string]bool
}

func sess(s *proto.Session) *session {
	if v := s.Slot(proto.QUIC); v != nil {
		return v.(*session)
	}
	st := &session{cids: make(map[string]bool)}
	s.SetSlot(proto.QUIC, st)
	return st
}

// Comply applies the five criteria to a QUIC packet header. Payloads
// are encrypted by design, so only the invariant and v1 header rules
// apply.
func (handler) Comply(dst []proto.Checked, m proto.Message, ts time.Time, s *proto.Session) []proto.Checked {
	h := m.QUIC
	c := proto.Checked{
		Protocol:  proto.QUIC,
		Type:      quicTypeKey(h),
		Bytes:     m.Length,
		Timestamp: ts,
	}
	c.Verdict = sess(s).quicVerdict(h)
	return append(dst, c)
}

func (st *session) quicVerdict(h *quicwire.Header) proto.Verdict {
	// Criterion 1: packet type. Long-header types 0-3 are all defined
	// in v1; Version Negotiation is defined by the invariants; short
	// headers are 1-RTT packets.

	// Criterion 2: header fields.
	if h.Long {
		if h.Version != quicwire.Version1 && h.Version != quicwire.VersionNegotiation {
			return proto.Fail(proto.CritHeader, "unknown QUIC version %#08x", h.Version)
		}
		if h.Version == quicwire.Version1 && !h.FixedBit {
			return proto.Fail(proto.CritHeader, "fixed bit is zero in a v1 long header")
		}
		if len(h.DCID) > quicwire.MaxCIDLen || len(h.SCID) > quicwire.MaxCIDLen {
			return proto.Fail(proto.CritHeader, "connection ID longer than 20 bytes in v1")
		}
	} else if !h.FixedBit {
		return proto.Fail(proto.CritHeader, "fixed bit is zero in a short header")
	}

	// Criteria 3-4 do not apply: QUIC headers carry no TLV attributes
	// and the payload is encrypted.

	// Criterion 5: connection-ID consistency across the stream. A short
	// header whose DCID was never introduced by a long header would be
	// flagged, but the DPI already refuses to extract such packets; we
	// record CIDs for completeness.
	if len(h.DCID) > 0 {
		st.cids[string(h.DCID)] = true
	}
	if len(h.SCID) > 0 {
		st.cids[string(h.SCID)] = true
	}
	return proto.Ok()
}
