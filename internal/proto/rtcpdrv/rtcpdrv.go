// Package rtcpdrv registers the RTCP protocol with the wire-protocol
// registry: the RFC 5761 demux-range prober with trailer plausibility
// and unassigned-type SSRC cross-validation, the per-packet compliance
// judges (including SRTCP trailer semantics), and the findings observer
// reporting trailer bytes and feedback evidence.
package rtcpdrv

import (
	"encoding/binary"
	"strconv"
	"time"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/srtp"
)

func init() {
	proto.Register(handler{})
}

// Precedence orders RTCP after the STUN family's strong fingerprints
// but before QUIC: the 192-223 packet-type range is carved out of the
// RTP space by RFC 5761 and must win against the RTP prober.
const Precedence = 30

// Gate is RTCP's raw-byte gate: version 2 and a packet type in the RFC
// 5761 range 192-223 (top three bits 110). Exported for the RTP
// driver's strong-second-candidate scan.
var Gate = proto.Gate{Mask: 0xC0E0 << 48, Want: 0x80C0 << 48}

type handler struct{}

func (handler) Meta() proto.Meta {
	return proto.Meta{
		ID:          proto.RTCP,
		Name:        "RTCP",
		Slug:        "rtcp",
		Family:      proto.RTCP,
		Order:       3,
		Fingerprint: "version 2 + RFC 5761 packet type 192-223, compound walk with plausible (S)RTCP trailer",
		Fuzz:        "./internal/rtcp:FuzzDecodeCompound",
	}
}

func (handler) Probers() []proto.Prober {
	return []proto.Prober{{
		Precedence: Precedence,
		Gate:       Gate,
		Probe:      proto.ConsumeProbe(Match),
		Validate:   Match,
	}}
}

// Match matches an RTCP compound region: version 2 and packet type
// 192-223 per the RFC 5761 demultiplexing range, with the paper's
// cross-validation heuristic: the sender SSRC of unassigned packet
// types must match a known RTP stream, and the trailing bytes must form
// a plausible trailer (nothing, a small proprietary suffix, or an SRTCP
// index with or without the auth tag). Exported for the RTP driver's
// strong-second-candidate scan.
func Match(c proto.Candidate, st *proto.StreamState, out *proto.Message) bool {
	b := c.Bytes()
	if !rtcp.LooksLikeHeader(b) {
		return false
	}
	// The DPI probes every candidate offset of every datagram, so
	// rejections (the common case inside RTP payloads and proprietary
	// headers) must not allocate: replay the rejection rules over the
	// raw bytes first and decode only survivors.
	if !scanCompound(b, st) {
		return false
	}
	pkts, trailing, err := rtcp.DecodeCompound(b)
	if err != nil || len(pkts) == 0 {
		return false
	}
	length := 0
	for _, p := range pkts {
		length += p.Header.ByteLen()
	}
	switch len(trailing) {
	case 0, 1, 2, 3, 4, 14:
	default:
		return false
	}
	for _, p := range pkts {
		// Every real RTCP packet carries at least the header plus one
		// SSRC word.
		if p.Header.ByteLen() < 8 {
			return false
		}
		if rtcp.Defined(p.Header.Type) {
			continue
		}
		// Unassigned type: require SSRC support from the stream's
		// validated RTP state ("cross validated sender SSRC with known
		// RTP streams", §4.1.1). Permissive single-datagram mode has no
		// validated set and accepts the candidate.
		if st.ValidatedSSRC == nil {
			continue
		}
		ssrc, ok := p.SenderSSRC()
		if !ok || !st.ValidatedSSRC[ssrc] {
			return false
		}
	}
	*out = proto.Message{
		Protocol:     proto.RTCP,
		Length:       length + len(trailing),
		RTCP:         pkts,
		RTCPTrailing: trailing,
	}
	return true
}

// scanCompound is Match's allocation-free pre-filter: it walks the
// compound region exactly as DecodeCompound does and applies every
// rejection rule — minimum packet length, the trailer-length whitelist,
// and the unassigned-type SSRC cross-validation — on the raw bytes. It
// may only reject; a true verdict is always confirmed by the full
// decode, so the two cannot drift apart silently.
func scanCompound(b []byte, st *proto.StreamState) bool {
	off := 0
	for {
		// Match's LooksLikeHeader gate (and DecodeCompound's, for later
		// packets) guarantees the declared length fits in b.
		blen := 4 * (int(uint16(b[off+2])<<8|uint16(b[off+3])) + 1)
		if blen < 8 {
			return false
		}
		if !rtcp.Defined(rtcp.PacketType(b[off+1])) && st.ValidatedSSRC != nil {
			// Unassigned type: the sender SSRC (first body word, after
			// padding removal) must match a validated RTP stream.
			body := b[off+4 : off+blen]
			if b[off]&0x20 != 0 && len(body) > 0 {
				if pad := int(body[len(body)-1]); pad > 0 && pad <= len(body) {
					body = body[:len(body)-pad]
				}
			}
			if len(body) < 4 {
				return false
			}
			if !st.ValidatedSSRC[binary.BigEndian.Uint32(body[:4])] {
				return false
			}
		}
		off += blen
		if off+rtcp.HeaderLen > len(b) || !rtcp.LooksLikeHeader(b[off:]) {
			break
		}
	}
	switch len(b) - off {
	case 0, 1, 2, 3, 4, 14:
		return true
	}
	return false
}

// trailerKind classifies the bytes following an RTCP compound region.
type trailerKind int

const (
	trailerNone trailerKind = iota
	// trailerSRTCP is a full RFC 3711 trailer: 4-byte E-flag+index plus
	// the 10-byte authentication tag.
	trailerSRTCP
	// trailerSRTCPNoAuth is the E-flag+index alone — the Google Meet
	// relay-mode violation (RFC 3711 requires the auth tag).
	trailerSRTCPNoAuth
	// trailerUnknown is anything else (Discord's counter+direction
	// bytes).
	trailerUnknown
)

func classifyTrailer(trailing []byte) trailerKind {
	switch len(trailing) {
	case 0:
		return trailerNone
	case srtp.SRTCPIndexLen:
		return trailerSRTCPNoAuth
	case srtp.SRTCPIndexLen + srtp.AuthTagLen:
		return trailerSRTCP
	default:
		return trailerUnknown
	}
}

// session is RTCP's per-stream criterion-5 state: the last SRTCP index
// observed per sender SSRC, for the monotonicity check.
type session struct {
	srtcpLastIx map[uint32]uint32
}

func sess(s *proto.Session) *session {
	if v := s.Slot(proto.RTCP); v != nil {
		return v.(*session)
	}
	st := &session{srtcpLastIx: make(map[uint32]uint32)}
	s.SetSlot(proto.RTCP, st)
	return st
}

// Comply applies the five criteria to each RTCP packet in a compound
// region. Encrypted (SRTCP) regions skip body-content checks — the
// paper can only judge what is in the clear — and are judged on header
// and trailer structure.
// typeLabels precomputes the packet-type labels so judging a compound
// region does not allocate a fresh number string per packet.
var typeLabels = func() (t [256]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return
}()

func (handler) Comply(dst []proto.Checked, m proto.Message, ts time.Time, s *proto.Session) []proto.Checked {
	st := sess(s)
	kind := classifyTrailer(m.RTCPTrailing)
	encrypted := kind != trailerNone
	base := len(dst)
	for _, p := range m.RTCP {
		c := proto.Checked{
			Protocol:  proto.RTCP,
			Type:      proto.TypeKey{Protocol: proto.RTCP, Label: typeLabels[uint8(p.Header.Type)]},
			Bytes:     p.Header.ByteLen(),
			Timestamp: ts,
		}
		c.Verdict = st.rtcpVerdict(p, kind, encrypted, m.RTCPTrailing)
		dst = append(dst, c)
	}
	// Spread the trailer bytes across the region's packets for volume
	// accounting.
	if len(dst) > base {
		dst[len(dst)-1].Bytes += len(m.RTCPTrailing)
	}
	return dst
}

func (st *session) rtcpVerdict(p *rtcp.Packet, kind trailerKind, encrypted bool, trailing []byte) proto.Verdict {
	// Criterion 1: packet type must be assigned.
	if !rtcp.Defined(p.Header.Type) {
		return proto.Fail(proto.CritMessageType, "RTCP packet type %d is not assigned", uint8(p.Header.Type))
	}

	// Criterion 2: header fields. Version 2 is guaranteed structurally;
	// the count field must be consistent with the body for plaintext
	// packets.
	if !encrypted && !p.ParseOK {
		return proto.Fail(proto.CritHeader, "%v body does not match its count/length fields", p.Header.Type)
	}

	// Criteria 3 and 4 for plaintext bodies: item and block types.
	if !encrypted {
		if v := rtcpBodyChecks(p); !v.Compliant {
			return v
		}
	}

	// Criterion 5: trailer structure and SRTCP index behaviour.
	switch kind {
	case trailerUnknown:
		// The Discord case: a proprietary counter/direction trailer is
		// not part of any RTCP or SRTCP specification.
		return proto.Fail(proto.CritSemantics, "%v followed by undefined trailing bytes (not an SRTCP trailer)", p.Header.Type)
	case trailerSRTCPNoAuth:
		// The Google Meet relay-mode case.
		return proto.Fail(proto.CritSemantics, "SRTCP message carries E-flag and index but no authentication tag (RFC 3711 requires one)")
	case trailerSRTCP:
		// Verify the E-flag/index word and per-SSRC index monotonicity.
		// The E-flag may legitimately be clear (authenticated-only
		// SRTCP), so only the index is validated.
		_, index, okk := srtcpIndexWord(trailing)
		if !okk {
			return proto.Fail(proto.CritSemantics, "SRTCP trailer too short for index word")
		}
		if ssrc, has := p.SenderSSRC(); has {
			if last, seen := st.srtcpLastIx[ssrc]; seen && index <= last {
				return proto.Fail(proto.CritSemantics, "SRTCP index %d does not increase (last %d) for SSRC %#x", index, last, ssrc)
			}
			st.srtcpLastIx[ssrc] = index
		}
	}
	return proto.Ok()
}

// rtcpBodyChecks validates plaintext type-specific contents: SDES item
// types, XR block types, feedback FMT values, and cross-validates
// feedback SSRCs against observed RTP streams.
func rtcpBodyChecks(p *rtcp.Packet) proto.Verdict {
	switch p.Header.Type {
	case rtcp.TypeSDES:
		for _, ch := range p.SDES.Chunks {
			for _, it := range ch.Items {
				if it.Type > rtcp.SDESPriv {
					return proto.Fail(proto.CritAttrType, "SDES item type %d is not assigned", it.Type)
				}
			}
		}
	case rtcp.TypeXR:
		for _, blk := range p.XR.Blocks {
			// RFC 3611 blocks 1-7 plus widely registered 8-14.
			if blk.BlockType == 0 || blk.BlockType > 14 {
				return proto.Fail(proto.CritAttrType, "XR block type %d is not assigned", blk.BlockType)
			}
		}
	case rtcp.TypeRTPFB:
		switch p.FB.FMT {
		case rtcp.FBNack, 3, 4, 5, 8, rtcp.FBTWCC:
		default:
			return proto.Fail(proto.CritAttrType, "RTPFB FMT %d is not assigned", p.FB.FMT)
		}
		// Criterion 4 for feedback: the FCI must parse per its format.
		switch p.FB.FMT {
		case rtcp.FBNack:
			if _, err := rtcp.DecodeNackFCI(p.FB.FCI); err != nil {
				return proto.Fail(proto.CritAttrValue, "Generic NACK FCI malformed: %v", err)
			}
		case rtcp.FBTWCC:
			if _, err := rtcp.DecodeTWCCFCI(p.FB.FCI); err != nil {
				return proto.Fail(proto.CritAttrValue, "transport-wide feedback FCI malformed: %v", err)
			}
		}
	case rtcp.TypePSFB:
		switch p.FB.FMT {
		case rtcp.FBPLI, rtcp.FBSLI, rtcp.FBRPSI, rtcp.FBFIR, 5, 6, rtcp.FBAFB:
		default:
			return proto.Fail(proto.CritAttrType, "PSFB FMT %d is not assigned", p.FB.FMT)
		}
		switch p.FB.FMT {
		case rtcp.FBPLI:
			// RFC 4585 §6.3.1: PLI carries no FCI.
			if len(p.FB.FCI) != 0 {
				return proto.Fail(proto.CritAttrValue, "PLI carries %d FCI bytes; RFC 4585 defines none", len(p.FB.FCI))
			}
		case rtcp.FBFIR:
			// RFC 5104 §4.3.1: FIR entries are 8 bytes each.
			if len(p.FB.FCI) == 0 || len(p.FB.FCI)%8 != 0 {
				return proto.Fail(proto.CritAttrValue, "FIR FCI length %d is not a multiple of 8", len(p.FB.FCI))
			}
		case rtcp.FBAFB:
			// Application layer feedback: when it carries the REMB
			// identifier, the REMB structure must hold.
			if len(p.FB.FCI) >= 4 && string(p.FB.FCI[:4]) == "REMB" {
				if _, err := rtcp.DecodeREMBFCI(p.FB.FCI); err != nil {
					return proto.Fail(proto.CritAttrValue, "REMB FCI malformed: %v", err)
				}
			}
		}
	case rtcp.TypeSenderReport:
		if p.SR.Info.NTPTimestamp == 0 {
			return proto.Fail(proto.CritAttrValue, "sender report carries a zero NTP timestamp")
		}
	}
	return proto.Ok()
}

// srtcpIndexWord extracts the E-flag and index from an SRTCP trailer.
func srtcpIndexWord(trailing []byte) (eflag bool, index uint32, ok bool) {
	if len(trailing) < srtp.SRTCPIndexLen {
		return false, 0, false
	}
	w := binary.BigEndian.Uint32(trailing[:4])
	return w&(1<<31) != 0, w & 0x7fffffff, true
}

// Observe reports the behavioural-findings evidence an RTCP message
// carries: a short proprietary trailer's final byte (the
// direction-correlation finding) and feedback submessage counts with
// zero sender SSRCs (the Discord zero-SSRC finding).
func (handler) Observe(m proto.Message, o *proto.Observation) {
	if n := len(m.RTCPTrailing); n > 0 && n < 4 {
		o.TrailerByte = m.RTCPTrailing[n-1]
		o.HasTrailerByte = true
	}
	for _, p := range m.RTCP {
		if p.Header.Type == rtcp.TypeRTPFB || p.Header.Type == rtcp.TypePSFB {
			o.FeedbackMessages++
			if ssrc, ok := p.SenderSSRC(); ok && ssrc == 0 {
				o.ZeroSSRCFeedback++
			}
		}
	}
}
