// Package rtpdrv registers RTP with the wire-protocol registry. RTP is
// the one target protocol whose header pattern is weak (any version-2
// first byte passes), so the driver supplies all three hooks of the
// two-pass design: a pass-1 prober that tallies per-SSRC candidate
// sightings into the scan state, a pass-2 validator gated on the
// validated-SSRC set with sequence/timestamp continuity, and an Accept
// hook that truncates a message when a strong second candidate starts
// inside its claimed payload (Zoom's two-RTP case).
package rtpdrv

import (
	"encoding/binary"
	"strconv"
	"time"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/proto/rtcpdrv"
	"github.com/rtc-compliance/rtcc/internal/proto/stundrv"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

func init() {
	proto.Register(handler{})
}

// Precedence orders RTP last: its fingerprint (two version bits) is the
// weakest in the pipeline, so every structural signature must get the
// first claim on a payload window.
const Precedence = 60

type handler struct{}

func (handler) Meta() proto.Meta {
	return proto.Meta{
		ID:          proto.RTP,
		Name:        "RTP",
		Slug:        "rtp",
		Family:      proto.RTP,
		Order:       2,
		Fingerprint: "version 2 + first byte outside the RFC 5761 RTCP range, validated by per-SSRC sequence/timestamp continuity",
		Fuzz:        "./internal/rtp:FuzzDecode",
	}
}

// The two passes read different fingerprints, so RTP registers two
// probers at one precedence: pass 1 tallies only version-2 candidates
// with a zero CSRC count, while Match accepts any CSRC count, and in
// stream-validated mode only a validated SSRC, which sits at +8.
// Giving the tally the wider gate would admit 16 times the offsets.
func (handler) Probers() []proto.Prober {
	return []proto.Prober{
		{
			Precedence: Precedence,
			Gate:       proto.Gate{Mask: 0xCF << 56, Want: 0x80 << 56},
			Probe:      tallyProbe,
		},
		{
			Precedence: Precedence,
			Gate:       proto.Gate{Mask: 0xC0 << 56, Want: 0x80 << 56},
			SSRCAt:     8,
			Validate:   Match,
		},
	}
}

// streamState is RTP's per-stream pass-2 state: last accepted sequence
// number and timestamp per SSRC, plus the decode scratch that keeps the
// probe path allocation-free and the packet slab that keeps acceptance
// allocation-free.
type streamState struct {
	lastSeq map[uint32]uint16
	lastTS  map[uint32]uint32
	probe   rtp.Packet
	slab    pktSlab
	// unvalidated is set once Accept records an SSRC outside the
	// validated set (every SSRC in permissive mode), so lastSeq is no
	// longer a subset of it.
	unvalidated bool
	// senderNext is findStrongCandidate's reused word-cursor scratch:
	// per validated SSRC word, the least j at or after the scan's
	// position that carries it at j+4.
	senderNext []int
}

// slabBlock is the packet count of one slab block. Blocks are fixed
// size so accepted *rtp.Packet pointers stay stable while the slab
// grows (append on a flat slice would move them).
const slabBlock = 64

// pktSlab bump-allocates rtp.Packet values out of reusable fixed-size
// blocks. Recycling is epoch-keyed: when the stream state's Epoch
// advances (one bump per Finalize chunk), the slab rewinds and the
// blocks are reused, because the previous chunk's messages have been
// consumed by then (DESIGN.md §14). Within an epoch every next call
// returns a distinct, stable packet.
type pktSlab struct {
	blocks     [][]rtp.Packet
	block, idx int
	epoch      uint64
}

func (s *pktSlab) next(epoch uint64) *rtp.Packet {
	if epoch != s.epoch {
		s.epoch = epoch
		s.block, s.idx = 0, 0
	}
	if s.block == len(s.blocks) {
		s.blocks = append(s.blocks, make([]rtp.Packet, slabBlock))
	}
	p := &s.blocks[s.block][s.idx]
	if s.idx++; s.idx == slabBlock {
		s.block++
		s.idx = 0
	}
	return p
}

func state(st *proto.StreamState) *streamState {
	if v := st.Slot(proto.RTP); v != nil {
		return v.(*streamState)
	}
	s := &streamState{
		lastSeq: make(map[uint32]uint16),
		lastTS:  make(map[uint32]uint32),
	}
	st.SetSlot(proto.RTP, s)
	return s
}

// scanState is RTP's pass-1 state: per-SSRC candidate tallies. Tallies
// are stored by value, so a new candidate SSRC costs no allocation
// beyond map growth. The table stays a Go map, whose hash is seeded
// per map: peers choose their SSRCs freely, so a fixed hash would let
// one send colliding SSRCs.
type scanState struct {
	cands map[uint32]candTally
}

// candTally is the incremental form of pass 1's per-SSRC observation
// list: validation only ever compares adjacent sightings, so the last
// sighting carries the same information. validated mirrors the SSRC's
// entry in ScanState.ValidatedSSRC, so a sighting costs one lookup
// and one store; it fits in the struct's padding (8 bytes either way).
type candTally struct {
	lastSeq   uint16
	validated bool
	lastTS    uint32
}

func scan(sc *proto.ScanState) *scanState {
	if v := sc.Slot(proto.RTP); v != nil {
		return v.(*scanState)
	}
	s := &scanState{cands: make(map[uint32]candTally)}
	sc.SetSlot(proto.RTP, s)
	return s
}

// tallyProbe advances pass 1 at one offset: it records an RTP candidate
// sighting and always reports no match, so the engine's scan advances
// by one byte — candidate RTP headers are not yet trusted to consume
// their span.
func tallyProbe(c proto.Candidate, sc *proto.ScanState) (int, bool) {
	b := c.Bytes()
	if !rtp.LooksLikeHeader(b) || (b[1] >= 192 && b[1] <= 223) {
		return 0, false
	}
	// A sighting is only recorded for zero-CSRC candidates, and the
	// CSRC count is the low nibble of the first byte: settling the
	// common nonzero case here skips the state lookup for ~15/16 of
	// the version-2 windows the scan visits.
	if b[0]&0x0F != 0 {
		return 0, false
	}
	// rtp.LooksLikeHeader has checked the extension length, so only the
	// padding can make rtp.DecodeInto reject the window; the sighting
	// reads its three fields at their fixed offsets, decoding no header.
	if paddingFits(b) {
		scan(sc).note(sc, binary.BigEndian.Uint32(b[8:]), binary.BigEndian.Uint16(b[2:]), binary.BigEndian.Uint32(b[4:]))
	}
	return 0, false
}

// paddingFits reports whether rtp.DecodeInto accepts the zero-CSRC
// window b, which rtp.LooksLikeHeader accepts: with the padding bit
// set, at least one byte must follow the header and its extension, and
// the last byte, the padding count, must be nonzero and no larger than
// what follows.
func paddingFits(b []byte) bool {
	if b[0]&0x20 == 0 {
		return true
	}
	rest := len(b) - rtp.HeaderLen
	if b[0]&0x10 != 0 {
		rest -= 4 + 4*int(binary.BigEndian.Uint16(b[rtp.HeaderLen+2:]))
	}
	pl := int(b[len(b)-1])
	return rest > 0 && pl != 0 && pl <= rest
}

// note records one pass-1 candidate sighting. An SSRC is validated by
// one adjacent candidate pair whose sequence numbers are continuous AND
// whose timestamps advance plausibly. The timestamp condition matters:
// byte windows that straddle a real RTP header inherit slowly-cycling
// sequence bytes (so sequence continuity alone can be fooled) but their
// inherited timestamp field jumps by 2^24 per packet.
func (s *scanState) note(sc *proto.ScanState, ssrc uint32, seq uint16, ts uint32) {
	o, ok := s.cands[ssrc]
	if ok && !o.validated && seqClose(o.lastSeq, seq) && tsClose(o.lastTS, ts) {
		o.validated = true
		sc.ValidatedSSRC[ssrc] = true
	}
	s.cands[ssrc] = candTally{lastSeq: seq, validated: o.validated, lastTS: ts}
}

// seqClose reports whether b is a plausible successor of sequence
// number a: strictly after it within a small forward window, or a small
// backward step (reordering), with wraparound.
func seqClose(a, b uint16) bool {
	d := b - a // wraparound arithmetic
	return d != 0 && (d < 64 || d > 0xffff-16)
}

// tsClose reports whether an RTP timestamp is plausible given the last
// accepted one for the SSRC: within ±2^21 ticks (over 20 seconds at a
// 90 kHz video clock), with wraparound.
func tsClose(last, ts uint32) bool {
	d := ts - last
	return d < 1<<21 || d > (1<<32)-(1<<21)
}

// Match matches RTP: version 2, first payload byte outside the RTCP
// demultiplexing range (RFC 5761), and either a known SSRC with a
// plausible next sequence number or a fresh zero-CSRC packet.
func Match(c proto.Candidate, st *proto.StreamState, out *proto.Message) bool {
	b := c.Bytes()
	if !rtp.LooksLikeHeader(b) {
		return false
	}
	if b[1] >= 192 && b[1] <= 223 {
		return false // RTCP range
	}
	if st.ValidatedSSRC != nil && !st.ValidatedSSRC[binary.BigEndian.Uint32(b[8:12])] {
		// Stream-validated mode: only SSRCs with cross-packet support
		// survive (paper §4.1.1: "continuous sequence number within the
		// same stream"). The SSRC sits at fixed offset 8 of the header
		// regardless of what follows, so the gate runs on the raw bytes
		// before the full decode: nearly every candidate window fails
		// it, and a window that would fail decode is rejected either
		// way.
		return false
	}
	rs := state(st)
	// Probe into the stream state's scratch Packet; most candidate
	// offsets are rejected, so the heap copy is deferred to acceptance.
	probe := &rs.probe
	if rtp.DecodeInto(probe, b) != nil {
		return false
	}
	if last, ok := rs.lastSeq[probe.SSRC]; ok {
		if !seqClose(last, probe.SequenceNumber) {
			return false
		}
		if lastTS, has := rs.lastTS[probe.SSRC]; has && !tsClose(lastTS, probe.Timestamp) {
			// Known SSRC but an implausible timestamp jump: a stray
			// byte window that happens to cover a real SSRC value.
			return false
		}
	} else if probe.CSRCCount != 0 {
		// First sighting of an SSRC: RTC media never uses CSRC lists in
		// these applications, so a nonzero CSRC count on a fresh SSRC
		// marks a mis-parse.
		return false
	}
	p := rs.slab.next(st.Epoch)
	*p = *probe
	if len(probe.CSRC) > 0 {
		p.CSRC = append([]uint32(nil), probe.CSRC...)
	} else {
		p.CSRC = nil // scratch reuse leaves a non-nil empty slice
	}
	*out = proto.Message{Protocol: proto.RTP, Length: len(b), RTP: p}
	return true
}

// Accept post-processes an accepted RTP message: when a strong second
// candidate starts inside the claimed payload the message is truncated
// to it (the engine re-scans from the cut), and the accepted sequence
// state is recorded for the SSRC.
func (handler) Accept(payload []byte, m proto.Message, st *proto.StreamState) proto.Message {
	if cut, ok := findStrongCandidate(payload, m, st); ok {
		m = truncate(payload, m, cut)
	}
	rs := state(st)
	ssrc := m.RTP.SSRC
	if !st.ValidatedSSRC[ssrc] {
		rs.unvalidated = true
	}
	rs.lastSeq[ssrc] = m.RTP.SequenceNumber
	rs.lastTS[ssrc] = m.RTP.Timestamp
	return m
}

// rtcpLanes finds RTCP's version/type-range pair eight offsets at a
// time.
var rtcpLanes = proto.NewLanes(0, rtcpdrv.Gate)

// cookieWord is the STUN magic cookie as it appears on the wire.
var cookieWord = func() (w [4]byte) {
	binary.BigEndian.PutUint32(w[:], stun.MagicCookie)
	return w
}()

// findStrongCandidate scans inside an RTP message's claimed payload for
// a second message start. Only strong candidates count: a magic-cookie
// STUN header, a valid RTCP compound, or an RTP header whose SSRC
// matches the outer message (Zoom's two-RTP case).
//
// Each validator runs only where a raw-byte condition it requires
// holds: the cookie word at j+4; RTCP's version/type-range pair at j
// and j+1; the outer SSRC word at j+8. In validated mode, while every
// accepted SSRC was validated, an RTCP hit's sender (bytes j+4..j+7,
// rtcp.Packet.SenderSSRC) must be a validated SSRC, so the scan
// searches for those words at j+4 instead of lane-scanning for the
// pair; a set over ValidatedWords' bound falls back to the lane scan.
// It visits the candidates in increasing j, and at one j in today's
// order: cookie, RTCP, SSRC. So the first hit, and every validator
// call before it whose outcome matters, are those of a byte-by-byte
// walk. The conditions only reject; the validator still confirms every
// hit. j stays at least rtp.HeaderLen bytes short of end, so every
// word read fits.
func findStrongCandidate(payload []byte, m proto.Message, st *proto.StreamState) (int, bool) {
	rs := state(st)
	ssrc := m.RTP.SSRC
	start := m.Offset + m.RTP.HeaderSize() + 1
	end := m.Offset + m.Length
	body := payload[:end]
	last := end - rtp.HeaderLen // candidates are j < last
	if start >= last {
		return 0, false
	}
	var ssrcWord [4]byte
	binary.BigEndian.PutUint32(ssrcWord[:], ssrc)
	// next returns the least j >= from with word at j+at, or last.
	next := func(word [4]byte, at, from int) int {
		return proto.NextWord(body, word, at, from, last)
	}
	cookie := next(cookieWord, 4, start)
	var senders [][4]byte
	byWord := false
	if st.ValidatedSSRC != nil && !rs.unvalidated {
		senders, byWord = st.ValidatedWords()
		rs.senderNext = rs.senderNext[:0]
		for range senders {
			rs.senderNext = append(rs.senderNext, -1)
		}
	}
	// nextRTCP returns the least RTCP candidate j >= from, or last.
	nextRTCP := func(from int) int {
		if !byWord {
			return rtcpLanes.Next(body, from, last, 0)
		}
		j := last
		for k, w := range senders {
			if rs.senderNext[k] < from {
				rs.senderNext[k] = next(w, 4, from)
			}
			j = min(j, rs.senderNext[k])
		}
		return j
	}
	rtcp := nextRTCP(start)
	same := next(ssrcWord, 8, start)
	var hit proto.Message
	for {
		j := min(cookie, rtcp, same)
		if j == last {
			return 0, false
		}
		c := proto.Candidate{Payload: body, Offset: j}
		if j == cookie {
			if body[j]>>6 == 0 && stundrv.MatchCookie(c, st, &hit) {
				return j, true
			}
			cookie = next(cookieWord, 4, j+1)
		}
		if j == rtcp {
			// An RTCP region inside an RTP payload must show SSRC
			// support: encrypted media bytes occasionally imitate an
			// RTCP header, and accepting one would wrongly truncate the
			// outer RTP message.
			if rtcpdrv.Match(c, st, &hit) && len(hit.RTCP) > 0 {
				if sender, has := hit.RTCP[0].SenderSSRC(); has {
					_, known := rs.lastSeq[sender]
					if known || (st.ValidatedSSRC != nil && st.ValidatedSSRC[sender]) {
						return j, true
					}
				}
			}
			rtcp = nextRTCP(j + 1)
		}
		if j == same {
			if body[j]>>6 == 2 && Match(c, st, &hit) &&
				hit.RTP.SSRC == ssrc && hit.RTP.SequenceNumber != m.RTP.SequenceNumber {
				return j, true
			}
			same = next(ssrcWord, 8, j+1)
		}
	}
}

// truncate re-decodes the RTP message with its payload cut at the given
// absolute offset.
func truncate(payload []byte, m proto.Message, cut int) proto.Message {
	p, err := rtp.Decode(payload[m.Offset:cut])
	if err != nil {
		return m // cannot shrink; keep the original claim
	}
	m.RTP = p
	m.Length = cut - m.Offset
	return m
}

// ptLabels precomputes the payload-type labels (0-127) so judging a
// media packet does not allocate a fresh number string per message.
var ptLabels = func() (t [128]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return
}()

// Comply applies the five criteria to an RTP message. For RTP the
// paper's "message type" is the payload type, and "attributes" are the
// RFC 8285 header-extension profile and its elements.
func (handler) Comply(dst []proto.Checked, m proto.Message, ts time.Time, _ *proto.Session) []proto.Checked {
	p := m.RTP
	c := proto.Checked{
		Protocol:  proto.RTP,
		Type:      proto.TypeKey{Protocol: proto.RTP, Label: ptLabels[p.PayloadType&0x7f]},
		Bytes:     m.Length,
		Timestamp: ts,
	}
	c.Verdict = rtpVerdict(p)
	return append(dst, c)
}

// definedExtProfile reports whether an RTP header-extension profile is
// defined: 0xBEDE (one-byte form) or 0x1000-0x100F (two-byte form) per
// RFC 8285.
func definedExtProfile(profile uint16) bool {
	return profile == rtp.ProfileOneByte ||
		profile&rtp.ProfileTwoByteMask == rtp.ProfileTwoByteBase
}

func rtpVerdict(p *rtp.Packet) proto.Verdict {
	// Criterion 1: payload type. Every value 0-127 is either statically
	// assigned (RFC 3551) or in the dynamic range, so the payload type
	// itself never fails; the version field is the type-bearing header
	// field and the DPI guarantees version 2.

	// Criterion 2: header fields. The CSRC count and padding are
	// structurally verified by the decoder; a padding length that
	// consumed the entire payload would have failed decode.

	// Criterion 3: header extension profile and element IDs.
	if p.Extension != nil {
		ext := p.Extension
		if !definedExtProfile(ext.Profile) {
			// FaceTime's 0x8001/0x8500/0x8D00 and Discord's
			// 0x0084-0xFBD2 profiles.
			return proto.Fail(proto.CritAttrType, "header extension profile %#04x is not defined by RFC 8285", ext.Profile)
		}
		for _, el := range ext.Elements {
			if ext.Profile == rtp.ProfileOneByte {
				if el.ID == 0 {
					// Discord's ID=0 elements with payload bytes: an ID
					// of 0 is padding and must not carry a length.
					return proto.Fail(proto.CritAttrType, "one-byte extension element with reserved ID 0 carries %d payload bytes", len(el.Payload))
				}
				if el.ID == 15 {
					return proto.Fail(proto.CritAttrType, "one-byte extension element uses reserved ID 15")
				}
			}
		}
		// Criterion 4: element structure must parse within the declared
		// extension length.
		if !ext.ParseOK {
			return proto.Fail(proto.CritAttrValue, "header extension elements overrun the declared extension length")
		}
	}

	// Criterion 5: sequence continuity is enforced during extraction;
	// no additional per-message semantic rule applies here.
	return proto.Ok()
}

// Observe marks the message as media-plane and reports its SSRC for the
// behavioural-findings scanners.
func (handler) Observe(m proto.Message, o *proto.Observation) {
	o.MediaMessage = true
	o.SSRC = m.RTP.SSRC
	o.HasSSRC = true
}
