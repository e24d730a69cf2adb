package compliance

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/ice"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
	"github.com/rtc-compliance/rtcc/internal/quicwire"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/srtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

var t0 = time.Unix(1700000000, 0).UTC()

func newSession() *Session { return NewChecker().NewSession() }

func stunMsg(m *stun.Message) dpi.Message {
	raw := m.Encode()
	return dpi.Message{Protocol: dpi.ProtoSTUN, Length: len(raw), STUN: m}
}

func checkOne(t *testing.T, s *Session, m dpi.Message) Checked {
	t.Helper()
	out := s.Check(m, t0)
	if len(out) != 1 {
		t.Fatalf("Check returned %d results", len(out))
	}
	return out[0]
}

func wantFail(t *testing.T, c Checked, crit Criterion, substr string) {
	t.Helper()
	if c.Verdict.Compliant {
		t.Fatalf("message judged compliant, want failure at %v", crit)
	}
	if c.Verdict.Failed != crit {
		t.Errorf("failed criterion = %v, want %v (reason %q)", c.Verdict.Failed, crit, c.Verdict.Reason)
	}
	if substr != "" && !strings.Contains(c.Verdict.Reason, substr) {
		t.Errorf("reason %q does not mention %q", c.Verdict.Reason, substr)
	}
}

func TestCompliantICEExchange(t *testing.T) {
	r := ice.NewRand(1)
	local := &ice.Agent{Ufrag: "l", Password: "localpasswordlocalpass", Controlling: true, TieBreaker: 7}
	remote := &ice.Agent{Ufrag: "r", Password: "remotepasswordremote"}
	req := local.BindingRequest(r, remote, 100, false)
	resp := remote.BindingResponse(req, netip.MustParseAddrPort("203.0.113.1:4000"))

	s := newSession()
	if c := checkOne(t, s, stunMsg(req)); !c.Verdict.Compliant {
		t.Errorf("binding request non-compliant: %s", c.Verdict.Reason)
	}
	if c := checkOne(t, s, stunMsg(resp)); !c.Verdict.Compliant {
		t.Errorf("binding response non-compliant: %s", c.Verdict.Reason)
	}
}

func TestUndefinedMessageType(t *testing.T) {
	m := &stun.Message{Type: stun.MessageType(0x0801), TransactionID: [12]byte{1}}
	m.Add(stun.AttrType(0x4003), []byte{0xff})
	c := checkOne(t, newSession(), stunMsg(m))
	wantFail(t, c, CritMessageType, "0x0801")
	if c.Type.Label != "0x0801" {
		t.Errorf("type label = %q", c.Type.Label)
	}
}

func TestAllZeroTransactionID(t *testing.T) {
	m := &stun.Message{Type: stun.TypeBindingRequest}
	c := checkOne(t, newSession(), stunMsg(m))
	wantFail(t, c, CritHeader, "transaction ID")
}

func TestUndefinedAttribute(t *testing.T) {
	// The Zoom case: Binding Request with undefined attribute 0x0101.
	m := &stun.Message{Type: stun.TypeBindingRequest, Classic: true, CookieWord: 0xabc, TransactionID: [12]byte{9}}
	m.Add(stun.AttrType(0x0101), []byte(strings.Repeat("1234567890", 2)))
	c := checkOne(t, newSession(), stunMsg(m))
	wantFail(t, c, CritAttrType, "0x0101")
}

func TestBadAddressFamily(t *testing.T) {
	// The FaceTime case: ALTERNATE-SERVER with family 0x00.
	m := &stun.Message{Type: stun.TypeBindingSuccess, TransactionID: [12]byte{2}}
	m.Add(stun.AttrAlternateServer, []byte{0, 0x00, 0x0d, 0x96, 1, 2, 3, 4})
	c := checkOne(t, newSession(), stunMsg(m))
	wantFail(t, c, CritAttrValue, "address family")
}

func TestWrongFixedAttrLength(t *testing.T) {
	m := &stun.Message{Type: stun.TypeAllocateRequest, TransactionID: [12]byte{3}}
	m.Add(stun.AttrReservationToken, []byte{1, 2, 3}) // must be 8
	c := checkOne(t, newSession(), stunMsg(m))
	wantFail(t, c, CritAttrValue, "invalid length")
}

func TestPriorityInSuccessResponse(t *testing.T) {
	m := &stun.Message{Type: stun.TypeBindingSuccess, TransactionID: [12]byte{4}}
	m.Add(stun.AttrPriority, []byte{0, 0, 0, 1})
	c := checkOne(t, newSession(), stunMsg(m))
	wantFail(t, c, CritAttrValue, "request-only")
}

func TestChannelNumberInDataIndication(t *testing.T) {
	// The FaceTime case: Data indication carrying CHANNEL-NUMBER with
	// value 0x00000000.
	r := ice.NewRand(2)
	m := ice.DataIndication(r, netip.MustParseAddrPort("10.0.0.1:5000"), []byte("d"), []stun.Attribute{
		{Type: stun.AttrChannelNumber, Value: []byte{0, 0, 0, 0}},
	})
	c := checkOne(t, newSession(), stunMsg(m))
	// The zero channel number fails the value-range check first.
	wantFail(t, c, CritAttrValue, "CHANNEL-NUMBER")
}

func TestSpuriousAllowedValueChannelNumberInDataIndication(t *testing.T) {
	// Even a range-valid CHANNEL-NUMBER is not permitted in a Data
	// indication.
	r := ice.NewRand(3)
	m := ice.DataIndication(r, netip.MustParseAddrPort("10.0.0.1:5000"), []byte("d"), []stun.Attribute{
		{Type: stun.AttrChannelNumber, Value: []byte{0x40, 0x00, 0, 0}},
	})
	c := checkOne(t, newSession(), stunMsg(m))
	wantFail(t, c, CritAttrValue, "not permitted")
}

func TestPlainDataIndicationCompliant(t *testing.T) {
	r := ice.NewRand(4)
	m := ice.DataIndication(r, netip.MustParseAddrPort("10.0.0.1:5000"), []byte("d"), nil)
	c := checkOne(t, newSession(), stunMsg(m))
	if !c.Verdict.Compliant {
		t.Errorf("plain Data indication non-compliant: %s", c.Verdict.Reason)
	}
}

func TestRepeatedRequestWithoutResponse(t *testing.T) {
	// The FaceTime case: same transaction ID once per second, never
	// answered.
	s := newSession()
	id := [12]byte{0xfa, 0xce}
	var last Checked
	for i := 0; i < 6; i++ {
		m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: id}
		last = checkOne(t, s, stunMsg(m))
	}
	wantFail(t, last, CritSemantics, "no response")
}

func TestRetransmissionWithResponseCompliant(t *testing.T) {
	// A request retransmitted a few times and then answered stays
	// compliant.
	s := newSession()
	id := [12]byte{0x33}
	for i := 0; i < 3; i++ {
		m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: id}
		if c := checkOne(t, s, stunMsg(m)); !c.Verdict.Compliant {
			t.Fatalf("retransmission %d flagged: %s", i, c.Verdict.Reason)
		}
	}
	resp := &stun.Message{Type: stun.TypeBindingSuccess, TransactionID: id}
	resp.Add(stun.AttrXORMappedAddress, stun.EncodeXORAddress(netip.MustParseAddrPort("1.2.3.4:5"), id))
	if c := checkOne(t, s, stunMsg(resp)); !c.Verdict.Compliant {
		t.Errorf("response flagged: %s", c.Verdict.Reason)
	}
	// Further requests on the answered transaction are fine.
	m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: id}
	checkOne(t, s, stunMsg(m)) // 4th request...
	c := checkOne(t, s, stunMsg(m))
	_ = c // responded transactions never trip the repeat rule below
}

func TestAllocatePingPong(t *testing.T) {
	// The Google Meet case: periodic Allocate requests after the
	// allocation succeeded.
	r := ice.NewRand(5)
	s := newSession()
	creds := ice.TURNCredentials{Username: "u", Realm: "rlm", Nonce: "n", Password: "p"}
	seq := ice.TURNAllocation(r, creds,
		netip.MustParseAddrPort("203.0.113.50:49152"),
		netip.MustParseAddrPort("198.51.100.1:40000"),
		netip.MustParseAddrPort("198.51.100.2:40001"), 0x4000)
	for _, ex := range seq {
		if c := checkOne(t, s, stunMsg(ex.Msg)); !c.Verdict.Compliant {
			t.Fatalf("handshake %v flagged: %s", ex.Msg.Type, c.Verdict.Reason)
		}
	}
	// Now the ping-pong: repeated fresh Allocate requests.
	var last Checked
	for i := 0; i < 5; i++ {
		m := &stun.Message{Type: stun.TypeAllocateRequest, TransactionID: r.TxID()}
		m.Add(stun.AttrRequestedTranspt, stun.EncodeRequestedTransport(17))
		last = checkOne(t, s, stunMsg(m))
	}
	wantFail(t, last, CritSemantics, "ping-pong")
}

func TestChannelDataSemantics(t *testing.T) {
	s := newSession()
	cdMsg := func(ch uint16) dpi.Message {
		cd := &stun.ChannelData{ChannelNumber: ch, Data: []byte("media")}
		return dpi.Message{Protocol: dpi.ProtoChannelData, Length: cd.DecodedLen(), ChannelData: cd}
	}
	// Unbound channel: the FaceTime case.
	c := checkOne(t, s, cdMsg(0x4010))
	wantFail(t, c, CritSemantics, "no prior ChannelBind")
	if c.Type.Label != "ChannelData" || c.Type.Protocol != dpi.ProtoSTUN {
		t.Errorf("type key = %+v", c.Type)
	}
	// Bind the channel, then ChannelData is compliant.
	bind := &stun.Message{Type: stun.TypeChannelBindRequest, TransactionID: [12]byte{1}}
	bind.Add(stun.AttrChannelNumber, stun.EncodeChannelNumber(0x4010))
	bind.Add(stun.AttrXORPeerAddress, stun.EncodeXORAddress(netip.MustParseAddrPort("10.0.0.1:1"), [12]byte{1}))
	checkOne(t, s, stunMsg(bind))
	if c := checkOne(t, s, cdMsg(0x4010)); !c.Verdict.Compliant {
		t.Errorf("bound ChannelData flagged: %s", c.Verdict.Reason)
	}
}

func rtpMsg(p *rtp.Packet) dpi.Message {
	raw := p.Encode()
	return dpi.Message{Protocol: dpi.ProtoRTP, Length: len(raw), RTP: p}
}

func TestRTPCompliant(t *testing.T) {
	p := &rtp.Packet{PayloadType: 111, SequenceNumber: 1, Timestamp: 960, SSRC: 0xaa, Payload: []byte("x")}
	c := checkOne(t, newSession(), rtpMsg(p))
	if !c.Verdict.Compliant {
		t.Errorf("plain RTP flagged: %s", c.Verdict.Reason)
	}
	if c.Type.Label != "111" {
		t.Errorf("label = %q", c.Type.Label)
	}
}

func TestRTPWithCompliantExtension(t *testing.T) {
	p := &rtp.Packet{PayloadType: 96, SSRC: 1, Payload: []byte("x")}
	p.Extension = &rtp.Extension{Profile: rtp.ProfileOneByte, Elements: []rtp.ExtensionElement{{ID: 3, Payload: []byte{1, 2}}}}
	p.Encode()
	dec, err := rtp.Decode(p.Raw)
	if err != nil {
		t.Fatal(err)
	}
	c := checkOne(t, newSession(), rtpMsg(dec))
	if !c.Verdict.Compliant {
		t.Errorf("BEDE extension flagged: %s", c.Verdict.Reason)
	}
}

func TestRTPUndefinedExtensionProfile(t *testing.T) {
	// The FaceTime case: profile 0x8500.
	p := &rtp.Packet{PayloadType: 100, SSRC: 2, Payload: []byte("x")}
	p.Extension = &rtp.Extension{Profile: 0x8500, Data: []byte{1, 2, 3, 4}}
	p.Encode()
	dec, _ := rtp.Decode(p.Raw)
	c := checkOne(t, newSession(), rtpMsg(dec))
	wantFail(t, c, CritAttrType, "0x8500")
}

func TestRTPExtensionIDZeroWithPayload(t *testing.T) {
	// The Discord case: one-byte element ID 0 with a nonzero length.
	p := &rtp.Packet{PayloadType: 120, SSRC: 3, Payload: []byte("x")}
	p.Extension = &rtp.Extension{Profile: rtp.ProfileOneByte, Data: []byte{0x02, 0xaa, 0xbb, 0xcc}}
	p.Encode()
	dec, _ := rtp.Decode(p.Raw)
	c := checkOne(t, newSession(), rtpMsg(dec))
	wantFail(t, c, CritAttrType, "ID 0")
}

func TestRTPExtensionOverrun(t *testing.T) {
	p := &rtp.Packet{PayloadType: 96, SSRC: 4, Payload: []byte("x")}
	p.Extension = &rtp.Extension{Profile: rtp.ProfileOneByte, Data: []byte{0x5f, 1, 2, 3}} // declares 16 bytes
	p.Encode()
	dec, _ := rtp.Decode(p.Raw)
	c := checkOne(t, newSession(), rtpMsg(dec))
	wantFail(t, c, CritAttrValue, "overrun")
}

func rtcpMsg(raws ...[]byte) dpi.Message {
	comp := rtcp.Compound(raws...)
	pkts, trailing, err := rtcp.DecodeCompound(comp)
	if err != nil {
		panic(err)
	}
	return dpi.Message{Protocol: dpi.ProtoRTCP, Length: len(comp), RTCP: pkts, RTCPTrailing: trailing}
}

func validSR() []byte {
	return rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 0x11, Info: rtcp.SenderInfo{NTPTimestamp: 0xe000000000000001, RTPTimestamp: 1, PacketCount: 1, OctetCount: 1}})
}

func TestRTCPCompliantCompound(t *testing.T) {
	sdes := rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: 0x11, Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "a@b"}}}}})
	out := newSession().Check(rtcpMsg(validSR(), sdes), t0)
	if len(out) != 2 {
		t.Fatalf("results = %d", len(out))
	}
	for _, c := range out {
		if !c.Verdict.Compliant {
			t.Errorf("%v flagged: %s", c.Type, c.Verdict.Reason)
		}
	}
	if out[0].Type.Label != "200" || out[1].Type.Label != "202" {
		t.Errorf("labels = %q %q", out[0].Type.Label, out[1].Type.Label)
	}
}

func TestRTCPUndefinedType(t *testing.T) {
	raw := rtcp.EncodeRaw(rtcp.PacketType(210), 0, []byte{0, 0, 0, 1})
	c := checkOne(t, newSession(), rtcpMsg(raw))
	wantFail(t, c, CritMessageType, "210")
}

func TestRTCPProprietaryTrailer(t *testing.T) {
	// The Discord case: 3 trailing bytes (counter + direction).
	m := rtcpMsg(validSR())
	m.RTCPTrailing = []byte{0x00, 0x01, 0x80}
	m.Length += 3
	c := checkOne(t, newSession(), m)
	wantFail(t, c, CritSemantics, "undefined trailing bytes")
}

func TestSRTCPMissingAuthTag(t *testing.T) {
	// The Google Meet relay case: 4-byte trailer only.
	m := rtcpMsg(validSR())
	m.RTCPTrailing = []byte{0x80, 0, 0, 1}
	m.Length += 4
	c := checkOne(t, newSession(), m)
	wantFail(t, c, CritSemantics, "authentication tag")
}

func TestSRTCPFullTrailerCompliantAndMonotonic(t *testing.T) {
	s := newSession()
	mk := func(index uint32) dpi.Message {
		m := rtcpMsg(validSR())
		trailer := []byte{byte(0x80 | index>>24), byte(index >> 16), byte(index >> 8), byte(index)}
		trailer = append(trailer, make([]byte, srtp.AuthTagLen)...)
		m.RTCPTrailing = trailer
		m.Length += len(trailer)
		return m
	}
	if c := checkOne(t, s, mk(1)); !c.Verdict.Compliant {
		t.Fatalf("index 1 flagged: %s", c.Verdict.Reason)
	}
	if c := checkOne(t, s, mk(2)); !c.Verdict.Compliant {
		t.Fatalf("index 2 flagged: %s", c.Verdict.Reason)
	}
	// Regressing index violates criterion 5.
	c := checkOne(t, s, mk(2))
	wantFail(t, c, CritSemantics, "does not increase")
}

func TestRTCPBodyChecksSkippedWhenEncrypted(t *testing.T) {
	// An SR with zero NTP timestamp would fail plaintext body checks,
	// but with an SRTCP trailer the body is ciphertext and exempt.
	zeroSR := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 9})
	m := rtcpMsg(zeroSR)
	trailer := append([]byte{0x80, 0, 0, 1}, make([]byte, srtp.AuthTagLen)...)
	m.RTCPTrailing = trailer
	m.Length += len(trailer)
	c := checkOne(t, newSession(), m)
	if !c.Verdict.Compliant {
		t.Errorf("encrypted body judged: %s", c.Verdict.Reason)
	}
	// Without the trailer, the zero NTP timestamp fails criterion 4.
	c2 := checkOne(t, newSession(), rtcpMsg(zeroSR))
	wantFail(t, c2, CritAttrValue, "NTP")
}

func TestSDESUndefinedItemType(t *testing.T) {
	sdes := rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: 1, Items: []rtcp.SDESItem{{Type: 40, Text: "x"}}}}})
	c := checkOne(t, newSession(), rtcpMsg(sdes))
	wantFail(t, c, CritAttrType, "SDES item type 40")
}

func TestFeedbackFMTValidation(t *testing.T) {
	twcc, err := rtcp.EncodeTWCCFCI(rtcp.TWCCFeedback{
		BaseSequence: 1, PacketCount: 1,
		Statuses: []uint8{rtcp.TWCCSmallDelta}, DeltasUS: []int64{250},
	})
	if err != nil {
		t.Fatal(err)
	}
	good := rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{FMT: rtcp.FBTWCC, SenderSSRC: 1, MediaSSRC: 2, FCI: twcc})
	if c := checkOne(t, newSession(), rtcpMsg(good)); !c.Verdict.Compliant {
		t.Errorf("TWCC flagged: %s", c.Verdict.Reason)
	}
	bad := rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{FMT: 9, SenderSSRC: 1, MediaSSRC: 2})
	c := checkOne(t, newSession(), rtcpMsg(bad))
	wantFail(t, c, CritAttrType, "FMT 9")
	badPS := rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: 9, SenderSSRC: 1, MediaSSRC: 2})
	c2 := checkOne(t, newSession(), rtcpMsg(badPS))
	wantFail(t, c2, CritAttrType, "FMT 9")
}

func TestXRBlockTypes(t *testing.T) {
	good := rtcp.EncodeXR(&rtcp.XR{SSRC: 1, Blocks: []rtcp.XRBlock{{BlockType: 4, Contents: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}})
	if c := checkOne(t, newSession(), rtcpMsg(good)); !c.Verdict.Compliant {
		t.Errorf("XR RRT flagged: %s", c.Verdict.Reason)
	}
	bad := rtcp.EncodeXR(&rtcp.XR{SSRC: 1, Blocks: []rtcp.XRBlock{{BlockType: 99}}})
	c := checkOne(t, newSession(), rtcpMsg(bad))
	wantFail(t, c, CritAttrType, "XR block type 99")
}

func TestRTCPMalformedBody(t *testing.T) {
	// SR declaring a report block without room for it.
	raw := rtcp.EncodeRaw(rtcp.TypeSenderReport, 1, make([]byte, 24))
	c := checkOne(t, newSession(), rtcpMsg(raw))
	wantFail(t, c, CritHeader, "count/length")
}

func quicMsg(h *quicwire.Header, n int) dpi.Message {
	return dpi.Message{Protocol: dpi.ProtoQUIC, Length: n, QUIC: h}
}

func TestQUICCompliant(t *testing.T) {
	pkt := quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, []byte{1, 2}, []byte{3}, nil, []byte{0})
	h, err := quicwire.ParseLong(pkt)
	if err != nil {
		t.Fatal(err)
	}
	c := checkOne(t, newSession(), quicMsg(h, len(pkt)))
	if !c.Verdict.Compliant {
		t.Errorf("Initial flagged: %s", c.Verdict.Reason)
	}
	if c.Type.Label != "long header Initial" {
		t.Errorf("label = %q", c.Type.Label)
	}
	short := &quicwire.Header{FixedBit: true, DCID: []byte{1, 2}}
	c2 := checkOne(t, newSession(), quicMsg(short, 30))
	if !c2.Verdict.Compliant || c2.Type.Label != "short header" {
		t.Errorf("short: %+v", c2)
	}
}

func TestQUICViolations(t *testing.T) {
	badVer := &quicwire.Header{Long: true, FixedBit: true, Version: 0xdead}
	c := checkOne(t, newSession(), quicMsg(badVer, 20))
	wantFail(t, c, CritHeader, "version")

	noFixed := &quicwire.Header{Long: true, Version: quicwire.Version1}
	c2 := checkOne(t, newSession(), quicMsg(noFixed, 20))
	wantFail(t, c2, CritHeader, "fixed bit")

	shortNoFixed := &quicwire.Header{}
	c3 := checkOne(t, newSession(), quicMsg(shortNoFixed, 20))
	wantFail(t, c3, CritHeader, "fixed bit")
}

func TestCriterionStrings(t *testing.T) {
	want := map[Criterion]string{
		CritNone:        "compliant",
		CritMessageType: "message type definition",
		CritHeader:      "header field validity",
		CritAttrType:    "attribute type validity",
		CritAttrValue:   "attribute value validity",
		CritSemantics:   "syntax and semantic integrity",
		Criterion(9):    "criterion 9",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestSequentialEvaluationStopsAtFirstFailure(t *testing.T) {
	// A message violating both criterion 1 (undefined type) and
	// criterion 3 (undefined attribute) reports only criterion 1.
	m := &stun.Message{Type: stun.MessageType(0x0800), TransactionID: [12]byte{1}}
	m.Add(stun.AttrType(0x4000), []byte{1})
	c := checkOne(t, newSession(), stunMsg(m))
	wantFail(t, c, CritMessageType, "")
}

func TestSequentialTransactionIDs(t *testing.T) {
	s := newSession()
	base := [12]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10}
	var last Checked
	for i := 0; i < 4; i++ {
		id := base
		id[11] += byte(i)
		m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: id}
		last = checkOne(t, s, stunMsg(m))
	}
	wantFail(t, last, CritHeader, "sequentially")
}

func TestSequentialTxIDCarryPropagates(t *testing.T) {
	s := newSession()
	ids := [][12]byte{
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0x00},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0x01},
	}
	var last Checked
	for _, id := range ids {
		m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: id}
		last = checkOne(t, s, stunMsg(m))
	}
	wantFail(t, last, CritHeader, "sequentially")
}

func TestRandomTransactionIDsNotFlagged(t *testing.T) {
	r := ice.NewRand(9)
	s := newSession()
	for i := 0; i < 20; i++ {
		m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: r.TxID()}
		if c := checkOne(t, s, stunMsg(m)); !c.Verdict.Compliant {
			t.Fatalf("random txid flagged: %s", c.Verdict.Reason)
		}
	}
	// Retransmissions (same txid) must not reset into false positives.
	id := r.TxID()
	for i := 0; i < 3; i++ {
		m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: id}
		if c := checkOne(t, s, stunMsg(m)); !c.Verdict.Compliant {
			t.Fatalf("retransmission flagged: %s", c.Verdict.Reason)
		}
	}
}

func TestFeedbackFCIValidation(t *testing.T) {
	// Valid TWCC passes.
	fci, err := rtcp.EncodeTWCCFCI(rtcp.TWCCFeedback{
		BaseSequence: 1, PacketCount: 2,
		Statuses: []uint8{rtcp.TWCCSmallDelta, rtcp.TWCCSmallDelta},
		DeltasUS: []int64{250, 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	good := rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{FMT: rtcp.FBTWCC, SenderSSRC: 1, MediaSSRC: 2, FCI: fci})
	if c := checkOne(t, newSession(), rtcpMsg(good)); !c.Verdict.Compliant {
		t.Errorf("valid TWCC flagged: %s", c.Verdict.Reason)
	}
	// Garbage TWCC FCI fails criterion 4.
	bad := rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{FMT: rtcp.FBTWCC, SenderSSRC: 1, MediaSSRC: 2, FCI: []byte{1, 2, 3}})
	wantFail(t, checkOne(t, newSession(), rtcpMsg(bad)), CritAttrValue, "transport-wide")

	// NACK with no FCI at all fails (a ragged FCI is undetectable for a
	// passive observer: the mandatory 32-bit padding re-aligns it).
	badNack := rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{FMT: rtcp.FBNack, SenderSSRC: 1, MediaSSRC: 2})
	wantFail(t, checkOne(t, newSession(), rtcpMsg(badNack)), CritAttrValue, "NACK")
	goodNack := rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{FMT: rtcp.FBNack, SenderSSRC: 1, MediaSSRC: 2, FCI: rtcp.EncodeNackFCI([]rtcp.NackPair{{PacketID: 5}})})
	if c := checkOne(t, newSession(), rtcpMsg(goodNack)); !c.Verdict.Compliant {
		t.Errorf("valid NACK flagged: %s", c.Verdict.Reason)
	}

	// PLI with FCI bytes fails.
	badPLI := rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBPLI, SenderSSRC: 1, MediaSSRC: 2, FCI: []byte{1, 2, 3, 4}})
	wantFail(t, checkOne(t, newSession(), rtcpMsg(badPLI)), CritAttrValue, "PLI")

	// FIR must be a multiple of 8.
	badFIR := rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBFIR, SenderSSRC: 1, MediaSSRC: 2, FCI: []byte{1, 2, 3, 4}})
	wantFail(t, checkOne(t, newSession(), rtcpMsg(badFIR)), CritAttrValue, "FIR")
	goodFIR := rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBFIR, SenderSSRC: 1, MediaSSRC: 2, FCI: make([]byte, 8)})
	if c := checkOne(t, newSession(), rtcpMsg(goodFIR)); !c.Verdict.Compliant {
		t.Errorf("valid FIR flagged: %s", c.Verdict.Reason)
	}

	// Malformed REMB fails; valid REMB passes; non-REMB AFB is free-form.
	rembFCI, err := rtcp.EncodeREMBFCI(rtcp.REMB{BitrateBPS: 500000, SSRCs: []uint32{7}})
	if err != nil {
		t.Fatal(err)
	}
	goodREMB := rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBAFB, SenderSSRC: 1, FCI: rembFCI})
	if c := checkOne(t, newSession(), rtcpMsg(goodREMB)); !c.Verdict.Compliant {
		t.Errorf("valid REMB flagged: %s", c.Verdict.Reason)
	}
	badREMB := rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBAFB, SenderSSRC: 1, FCI: []byte("REMB")})
	wantFail(t, checkOne(t, newSession(), rtcpMsg(badREMB)), CritAttrValue, "REMB")
	freeform := rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBAFB, SenderSSRC: 1, FCI: []byte("app-specific-bytes")})
	if c := checkOne(t, newSession(), rtcpMsg(freeform)); !c.Verdict.Compliant {
		t.Errorf("free-form AFB flagged: %s", c.Verdict.Reason)
	}
}
