package dpi

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/quicwire"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

func rtpPacket(ssrc uint32, seq uint16, payload []byte) []byte {
	p := &rtp.Packet{PayloadType: 111, SequenceNumber: seq, Timestamp: uint32(seq) * 960, SSRC: ssrc, Payload: payload}
	return p.Encode()
}

func TestStandardSTUNDatagram(t *testing.T) {
	r := ice.NewRand(1)
	msg := ice.ServerBindingRequest(r)
	res := NewEngine().Inspect(msg.Raw, nil)
	if res.Class != ClassStandard {
		t.Fatalf("class = %v", res.Class)
	}
	if len(res.Messages) != 1 || res.Messages[0].Protocol != ProtoSTUN {
		t.Fatalf("messages = %+v", res.Messages)
	}
	if res.Messages[0].STUN.Type != stun.TypeBindingRequest {
		t.Errorf("type = %v", res.Messages[0].STUN.Type)
	}
	if res.Messages[0].Length != len(msg.Raw) {
		t.Errorf("length = %d, want %d", res.Messages[0].Length, len(msg.Raw))
	}
}

func TestUndefinedSTUNTypeStillExtracted(t *testing.T) {
	// WhatsApp's 0x0801 with undefined attributes and magic cookie.
	m := &stun.Message{Type: stun.MessageType(0x0801)}
	m.Add(stun.AttrType(0x4003), []byte{0xff})
	m.Add(stun.AttrType(0x4004), make([]byte, 440))
	raw := m.Encode()
	res := NewEngine().Inspect(raw, nil)
	if res.Class != ClassStandard || len(res.Messages) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Messages[0].STUN.Type != stun.MessageType(0x0801) {
		t.Errorf("type = %v", res.Messages[0].STUN.Type)
	}
}

func TestClassicSTUNExactLength(t *testing.T) {
	// Zoom's RFC 3489 Binding Request with undefined attribute 0x0101.
	m := &stun.Message{Type: stun.TypeBindingRequest, Classic: true, CookieWord: 0x12345678}
	m.Add(stun.AttrType(0x0101), bytes.Repeat([]byte("1234567890"), 2))
	raw := m.Encode()
	res := NewEngine().Inspect(raw, nil)
	if res.Class != ClassStandard || len(res.Messages) != 1 {
		t.Fatalf("classic STUN not extracted: %+v", res)
	}
	if !res.Messages[0].STUN.Classic {
		t.Error("not flagged classic")
	}
	// With trailing junk the exact-length rule rejects it.
	res2 := NewEngine().Inspect(append(append([]byte{}, raw...), 0xde, 0xad, 0xbe, 0xef), nil)
	if res2.Class == ClassStandard && len(res2.Messages) > 0 && res2.Messages[0].Protocol == ProtoSTUN {
		t.Error("classic STUN with trailing junk accepted at offset 0")
	}
}

func TestRTPStream(t *testing.T) {
	ctx := NewStreamContext()
	e := NewEngine()
	for seq := uint16(100); seq < 110; seq++ {
		res := e.Inspect(rtpPacket(0xabc, seq, []byte("media")), ctx)
		if res.Class != ClassStandard || len(res.Messages) != 1 || res.Messages[0].Protocol != ProtoRTP {
			t.Fatalf("seq %d: %+v", seq, res)
		}
	}
	// A wild sequence jump on a known SSRC is rejected.
	res := e.Inspect(rtpPacket(0xabc, 40000, []byte("x")), ctx)
	if res.Class == ClassStandard {
		t.Error("wild sequence jump accepted")
	}
}

func TestRTPSequenceWraparound(t *testing.T) {
	ctx := NewStreamContext()
	e := NewEngine()
	p1 := &rtp.Packet{PayloadType: 111, SequenceNumber: 0xffff, Timestamp: 1000, SSRC: 1, Payload: []byte("x")}
	p2 := &rtp.Packet{PayloadType: 111, SequenceNumber: 0, Timestamp: 1960, SSRC: 1, Payload: []byte("x")}
	e.Inspect(p1.Encode(), ctx)
	res := e.Inspect(p2.Encode(), ctx)
	if res.Class != ClassStandard {
		t.Error("wraparound rejected")
	}
	// An implausible timestamp jump on a known SSRC is rejected even
	// with a plausible sequence number.
	p3 := &rtp.Packet{PayloadType: 111, SequenceNumber: 1, Timestamp: 1960 + 1<<24, SSRC: 1, Payload: []byte("x")}
	if res := e.Inspect(p3.Encode(), ctx); res.Class == ClassStandard {
		t.Error("timestamp jump accepted")
	}
}

func TestRTCPNotMisparsedAsRTP(t *testing.T) {
	sr := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 1, Info: rtcp.SenderInfo{NTPTimestamp: 1}})
	res := NewEngine().Inspect(sr, nil)
	if len(res.Messages) != 1 || res.Messages[0].Protocol != ProtoRTCP {
		t.Fatalf("messages = %+v", res.Messages)
	}
}

func TestRTCPCompoundWithTrailer(t *testing.T) {
	comp := rtcp.Compound(
		rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 5}),
		rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: 5, Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "x@y"}}}}}),
	)
	comp = append(comp, 0x80) // Discord direction byte
	res := NewEngine().Inspect(comp, nil)
	if res.Class != ClassStandard || len(res.Messages) != 1 {
		t.Fatalf("res = %+v", res)
	}
	m := res.Messages[0]
	if len(m.RTCP) != 2 || !bytes.Equal(m.RTCPTrailing, []byte{0x80}) {
		t.Errorf("rtcp = %d pkts, trailing %v", len(m.RTCP), m.RTCPTrailing)
	}
	if m.Length != len(comp) {
		t.Errorf("length = %d, want %d", m.Length, len(comp))
	}
}

func TestChannelDataExtracted(t *testing.T) {
	inner := rtpPacket(9, 1, []byte("media"))
	cd := &stun.ChannelData{ChannelNumber: 0x4001, Data: inner}
	res := NewEngine().Inspect(cd.Encode(), nil)
	if res.Class != ClassStandard || len(res.Messages) != 1 || res.Messages[0].Protocol != ProtoChannelData {
		t.Fatalf("res = %+v", res)
	}
	if res.Messages[0].ChannelData.ChannelNumber != 0x4001 {
		t.Error("channel number wrong")
	}
}

func TestFaceTime6000HeaderNotChannelData(t *testing.T) {
	// FaceTime's relay header: 0x6000, 2-byte length of remaining header
	// + message, then opaque header bytes, then RTP.
	inner := rtpPacket(7, 42, bytes.Repeat([]byte{0xee}, 50))
	hdrRest := []byte{0xa1, 0xb2, 0xc3, 0xd4} // opaque fields
	payload := []byte{0x60, 0x00}
	payload = append(payload, byte((len(hdrRest)+len(inner))>>8), byte(len(hdrRest)+len(inner)))
	payload = append(payload, hdrRest...)
	payload = append(payload, inner...)

	res := NewEngine().Inspect(payload, nil)
	if res.Class != ClassProprietaryHeader {
		t.Fatalf("class = %v, want proprietary header", res.Class)
	}
	if len(res.Messages) != 1 || res.Messages[0].Protocol != ProtoRTP {
		t.Fatalf("messages = %+v", res.Messages)
	}
	if res.Messages[0].Offset != 8 {
		t.Errorf("offset = %d, want 8", res.Messages[0].Offset)
	}
	if len(res.ProprietaryHeader) != 8 {
		t.Errorf("header = %x", res.ProprietaryHeader)
	}
}

func TestZoomStyleProprietaryHeader(t *testing.T) {
	// A Zoom-like header: direction byte, opaque SFU section with a
	// 4-byte media ID, media-type byte, then RTP.
	inner := rtpPacket(0x1000401, 7, bytes.Repeat([]byte{3}, 200))
	hdr := []byte{0x00, 0x0f, 0x99, 0x88, 0x77, 0x66, 0x0f, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55}
	payload := append(append([]byte{}, hdr...), inner...)
	res := NewEngine().Inspect(payload, nil)
	if res.Class != ClassProprietaryHeader {
		t.Fatalf("class = %v", res.Class)
	}
	if res.Messages[0].Offset != len(hdr) || res.Messages[0].Protocol != ProtoRTP {
		t.Fatalf("messages = %+v", res.Messages)
	}
}

func TestZoomDoubleRTPSplit(t *testing.T) {
	ctx := NewStreamContext()
	e := NewEngine()
	// Prime the stream with the SSRC.
	e.Inspect(rtpPacket(0x1000401, 99, bytes.Repeat([]byte{1}, 100)), ctx)
	// Datagram with two RTP messages: 7-byte payload then a large one.
	first := &rtp.Packet{PayloadType: 110, SequenceNumber: 100, Timestamp: 5000, SSRC: 0x1000401, Payload: bytes.Repeat([]byte{0xaa}, 7)}
	second := &rtp.Packet{PayloadType: 110, SequenceNumber: 101, Timestamp: 5000, SSRC: 0x1000401, Payload: bytes.Repeat([]byte{0xbb}, 400)}
	payload := append(first.Encode(), second.Encode()...)
	res := e.Inspect(payload, ctx)
	if res.Class != ClassStandard {
		t.Fatalf("class = %v", res.Class)
	}
	if len(res.Messages) != 2 {
		t.Fatalf("messages = %d, want 2", len(res.Messages))
	}
	m0, m1 := res.Messages[0], res.Messages[1]
	if m0.RTP.SequenceNumber != 100 || len(m0.RTP.Payload) != 7 {
		t.Errorf("first = seq %d, %d payload bytes", m0.RTP.SequenceNumber, len(m0.RTP.Payload))
	}
	if m1.RTP.SequenceNumber != 101 || len(m1.RTP.Payload) != 400 {
		t.Errorf("second = seq %d, %d payload bytes", m1.RTP.SequenceNumber, len(m1.RTP.Payload))
	}
}

// TestStrongRTCPAfterUnvalidatedAccept pins the second-message scan's
// fallback: once a stream has accepted an SSRC outside the validated
// set, an RTCP report from that SSRC still cuts an RTP payload, though
// the scan would search only for validated sender words otherwise.
func TestStrongRTCPAfterUnvalidatedAccept(t *testing.T) {
	ctx := NewStreamContext()
	e := NewEngine()
	// Permissive mode accepts SSRC 9 with no validation evidence.
	e.Inspect(rtpPacket(9, 1, bytes.Repeat([]byte{0x5a}, 24)), ctx)
	ctx.State.ValidatedSSRC = map[uint32]bool{5: true}
	sr := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 9, Info: rtcp.SenderInfo{NTPTimestamp: 1}})
	pad := bytes.Repeat([]byte{0x5a}, 24)
	res := e.Inspect(rtpPacket(5, 1, append(pad, sr...)), ctx)
	if len(res.Messages) != 2 || res.Messages[1].Protocol != ProtoRTCP || res.Messages[1].Offset != rtp.HeaderLen+len(pad) {
		t.Fatalf("messages = %s, want RTP cut by the RTCP report at %d", summarize([]Result{res}), rtp.HeaderLen+len(pad))
	}
}

func TestQUICLongAndShort(t *testing.T) {
	ctx := NewStreamContext()
	e := NewEngine()
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	long := quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, dcid, []byte{9}, nil, bytes.Repeat([]byte{0}, 1100))
	res := e.Inspect(long, ctx)
	if res.Class != ClassStandard || res.Messages[0].Protocol != ProtoQUIC {
		t.Fatalf("long: %+v", res)
	}
	// Short header with a known DCID now matches.
	short := quicwire.BuildShort(dcid, bytes.Repeat([]byte{7}, 100))
	res2 := e.Inspect(short, ctx)
	if res2.Class != ClassStandard || len(res2.Messages) != 1 || res2.Messages[0].Protocol != ProtoQUIC {
		t.Fatalf("short: %+v", res2)
	}
	// Short header with unknown DCID does not match.
	unknown := quicwire.BuildShort([]byte{8, 8, 8, 8, 8, 8, 8, 8}, []byte("x"))
	res3 := e.Inspect(unknown, ctx)
	if res3.Class != ClassFullyProprietary {
		t.Errorf("unknown DCID: %+v", res3)
	}
	// Without context, short headers never match.
	res4 := e.Inspect(short, nil)
	if res4.Class != ClassFullyProprietary {
		t.Errorf("no ctx: %+v", res4)
	}
}

func TestFullyProprietary(t *testing.T) {
	fillers := [][]byte{
		bytes.Repeat([]byte{0x01}, 1000), // Zoom filler
		bytes.Repeat([]byte{0x02}, 1000),
		append([]byte{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe}, bytes.Repeat([]byte{0}, 30)...), // FaceTime keepalive
	}
	e := NewEngine()
	for i, f := range fillers {
		res := e.Inspect(f, nil)
		if res.Class != ClassFullyProprietary {
			t.Errorf("filler %d: class = %v, messages = %+v", i, res.Class, res.Messages)
		}
	}
}

func TestMaxOffsetLimit(t *testing.T) {
	inner := rtpPacket(3, 9, []byte("x"))
	deep := append(bytes.Repeat([]byte{0xff}, 300), inner...)
	e := NewEngine() // k=200
	if res := e.Inspect(deep, nil); res.Class != ClassFullyProprietary {
		t.Errorf("k=200 found message at offset 300: %+v", res)
	}
	e2 := &Engine{MaxOffset: 400}
	if res := e2.Inspect(deep, nil); res.Class != ClassProprietaryHeader {
		t.Errorf("k=400 missed message at offset 300: %+v", res)
	}
}

func TestProtocolFilter(t *testing.T) {
	stunOnly := proto.Default().Without(ProtoChannelData, ProtoRTP, ProtoRTCP, ProtoQUIC, ProtoDTLS)
	e := &Engine{MaxOffset: 200, Registry: stunOnly}
	res := e.Inspect(rtpPacket(1, 1, []byte("x")), nil)
	if res.Class != ClassFullyProprietary {
		t.Errorf("RTP matched with STUN-only filter: %+v", res)
	}
}

func TestFamilyAndStrings(t *testing.T) {
	if ProtoChannelData.Family() != ProtoSTUN || ProtoRTP.Family() != ProtoRTP {
		t.Error("Family wrong")
	}
	if ProtoSTUN.String() != "STUN/TURN" || ProtoChannelData.String() != "ChannelData" ||
		ProtoQUIC.String() != "QUIC" || ProtoUnknown.String() != "unknown" {
		t.Error("protocol strings wrong")
	}
	if ClassStandard.String() != "standard" || ClassProprietaryHeader.String() != "proprietary header" ||
		ClassFullyProprietary.String() != "fully proprietary" {
		t.Error("class strings wrong")
	}
}

// Property: Inspect never panics, message spans never overlap, stay in
// bounds, and appear in increasing offset order.
func TestQuickInspectInvariants(t *testing.T) {
	e := NewEngine()
	f := func(payload []byte) bool {
		res := e.Inspect(payload, nil)
		end := 0
		for _, m := range res.Messages {
			if m.Offset < end || m.Length <= 0 || m.Offset+m.Length > len(payload) {
				return false
			}
			end = m.Offset + m.Length
		}
		switch res.Class {
		case ClassStandard:
			return len(res.Messages) > 0 && res.Messages[0].Offset == 0
		case ClassProprietaryHeader:
			return len(res.Messages) > 0 && res.Messages[0].Offset > 0 &&
				len(res.ProprietaryHeader) == res.Messages[0].Offset
		default:
			return len(res.Messages) == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a valid RTP packet embedded at any offset <= k behind random
// non-matching prefix bytes is found.
func TestQuickEmbeddedRTPFound(t *testing.T) {
	e := NewEngine()
	f := func(depth uint8, ssrc uint32, seq uint16) bool {
		d := int(depth) % 150
		prefix := bytes.Repeat([]byte{0x01}, d) // never matches anything
		pkt := rtpPacket(ssrc, seq, []byte("payload"))
		res := e.Inspect(append(prefix, pkt...), nil)
		if d == 0 {
			return res.Class == ClassStandard
		}
		return res.Class == ClassProprietaryHeader && res.Messages[0].Offset == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInspectEmptyPayload(t *testing.T) {
	res := NewEngine().Inspect(nil, nil)
	if res.Class != ClassFullyProprietary || len(res.Messages) != 0 {
		t.Errorf("empty payload: %+v", res)
	}
}

// TestInspectStreamAllocsPerCandidate pins that pass 1's per-SSRC
// tallies cost no allocation per candidate: random payloads put an
// RTP-looking window with a fresh candidate SSRC in most datagrams
// (about 2,900 here), and the whole stream must allocate only a small
// constant plus the tally map's growth (under 100 here).
func TestInspectStreamAllocsPerCandidate(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	payloads := make([][]byte, 2000)
	for i := range payloads {
		payloads[i] = make([]byte, 500)
		for j := range payloads[i] {
			payloads[i][j] = byte(r.Uint32())
		}
	}
	e := NewEngine()
	if allocs := testing.AllocsPerRun(3, func() { e.InspectStream(payloads) }); allocs > 200 {
		t.Errorf("InspectStream allocates %.0f objects over %d random datagrams, want at most 200", allocs, len(payloads))
	}
}
