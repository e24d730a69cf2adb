package appsim

import (
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

// WhatsApp and Messenger share Meta's WebRTC-derived stack and most of
// the paper's observed deviations (§5.2.1):
//
//   - undefined STUN message types 0x0800-0x0805: sixteen consecutive
//     0x0801 (500-byte, attribute 0x4004 of zeros) / 0x0802 (40-byte)
//     pairs within ~2.2 ms before the callee joins, sharing transaction
//     IDs, both carrying attribute 0x4003 = 0xFF;
//   - 0x0800 messages at call termination (4 for WhatsApp, 6 for
//     Messenger) carrying undefined attribute 0x4000 plus the standard
//     XOR-RELAYED-ADDRESS;
//   - undefined attributes in Binding and Allocate exchanges that make
//     0x0003, 0x0101, 0x0103 (and Messenger's 0x0001) non-compliant;
//   - compliant RTP (five payload types each) and compliant RTCP;
//   - on cellular, relay for the first 30 seconds then P2P.
type metaProfile struct {
	app               App
	burstPairs        int
	teardown0800      int
	extraUndefTypes   []stun.MessageType // WhatsApp's 0x0803-0x0805
	bindingReqUndef   bool               // Messenger: undefined attr in 0x0001
	rtpPayloads       []uint8
	rtcpEvery         int // emit RTCP once per this many media packets
	rtcpTypes         []rtcp.PacketType
	fullTURNLifecycle bool // Messenger exercises the whole TURN suite
	propEvery         int  // fully proprietary datagram cadence
}

var whatsAppProfile = metaProfile{
	app:             WhatsApp,
	burstPairs:      16,
	teardown0800:    4,
	extraUndefTypes: []stun.MessageType{0x0803, 0x0804, 0x0805},
	rtpPayloads:     []uint8{97, 103, 105, 106, 120},
	rtcpEvery:       97, // ≈1.0% of messages (coprime to stream count)
	rtcpTypes:       []rtcp.PacketType{rtcp.TypeSenderReport, rtcp.TypeSDES, rtcp.TypeRTPFB, rtcp.TypePSFB},
	propEvery:       250, // ≈0.4%
}

var messengerProfile = metaProfile{
	app:               Messenger,
	burstPairs:        16,
	teardown0800:      6,
	bindingReqUndef:   true,
	rtpPayloads:       []uint8{97, 98, 101, 126, 127},
	rtcpEvery:         9, // ≈9.9% of messages
	rtcpTypes:         []rtcp.PacketType{rtcp.TypeSenderReport, rtcp.TypeReceiverReport, rtcp.TypeRTPFB, rtcp.TypePSFB},
	fullTURNLifecycle: true,
	propEvery:         77, // ≈1.3%
}

func generateWhatsApp(e *env)  { generateMeta(e, whatsAppProfile) }
func generateMessenger(e *env) { generateMeta(e, messengerProfile) }

// switchPoint returns when a relay→P2P call flips to the direct path.
func switchPoint(cfg CallConfig) time.Duration {
	sw := 30 * time.Second
	if cfg.Duration < 2*sw {
		sw = cfg.Duration / 3
	}
	return sw
}

func generateMeta(e *env, p metaProfile) {
	cfg := e.cfg
	caller := netip.AddrPortFrom(e.callerLocal, 50020)
	callee := netip.AddrPortFrom(e.calleeAddr, 50022)
	server := netip.AddrPortFrom(e.serverAddr, 3478)
	end := cfg.Start.Add(cfg.Duration)

	// Determine the relay window.
	var relayUntil time.Time
	switch e.mode {
	case ModeRelay:
		relayUntil = end
	case ModeRelayThenP2P:
		relayUntil = cfg.Start.Add(switchPoint(cfg))
	default:
		relayUntil = cfg.Start // pure P2P
	}

	// --- Call setup STUN. ---
	setup := cfg.Start.Add(50 * time.Millisecond)

	// Compliant Binding Request; Messenger adds an undefined attribute.
	bindTx := e.rng.TxID()
	bind := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: bindTx}
	bind.Add(stun.AttrUsername, []byte("caller:callee"))
	bind.Add(stun.AttrPriority, []byte{0x6e, 0, 0x1e, 0xff})
	bind.Add(stun.AttrICEControlling, e.rng.Bytes(8))
	if p.bindingReqUndef {
		bind.Add(stun.AttrType(0x4005), e.rng.Bytes(4))
	}
	stun.AddFingerprint(bind)
	e.push(setup, caller, server, bind.Encode())

	// Binding Success Response with an undefined attribute (both apps'
	// 0x0101 is non-compliant).
	bresp := &stun.Message{Type: stun.TypeBindingSuccess, TransactionID: bindTx}
	bresp.Add(stun.AttrXORMappedAddress, stun.EncodeXORAddress(netip.AddrPortFrom(netip.MustParseAddr("198.51.100.1"), 40020), bindTx))
	bresp.Add(stun.AttrType(0x4002), e.rng.Bytes(12))
	e.push(setup.Add(25*time.Millisecond), server, caller, bresp.Encode())

	// Allocate Request with an undefined attribute; Success likewise.
	allocTx := e.rng.TxID()
	alloc := &stun.Message{Type: stun.TypeAllocateRequest, TransactionID: allocTx}
	alloc.Add(stun.AttrRequestedTranspt, stun.EncodeRequestedTransport(17))
	alloc.Add(stun.AttrType(0x4001), e.rng.Bytes(8))
	e.push(setup.Add(40*time.Millisecond), caller, server, alloc.Encode())

	relayed := e.relay.Allocate(netip.AddrPortFrom(netip.MustParseAddr("198.51.100.1"), 40020))
	aresp := &stun.Message{Type: stun.TypeAllocateSuccess, TransactionID: allocTx}
	aresp.Add(stun.AttrXORRelayedAddress, stun.EncodeXORAddress(relayed, allocTx))
	aresp.Add(stun.AttrLifetime, []byte{0, 0, 2, 0x58})
	aresp.Add(stun.AttrType(0x4002), e.rng.Bytes(12))
	e.push(setup.Add(70*time.Millisecond), server, caller, aresp.Encode())

	// Messenger exercises the full compliant TURN lifecycle on top.
	if p.fullTURNLifecycle {
		creds := ice.TURNCredentials{Username: "msgr", Realm: "facebook.com", Nonce: "n0nce", Password: "pw"}
		at := setup.Add(100 * time.Millisecond)
		seq := ice.TURNAllocation(e.rng, creds, relayed,
			netip.AddrPortFrom(netip.MustParseAddr("198.51.100.1"), 40020),
			callee, 0x4000)
		// Skip the Allocate pieces (already emitted, non-compliantly);
		// keep Refresh/CreatePermission/ChannelBind/etc.
		for _, ex := range seq[4:] {
			src, dst := caller, server
			if !ex.FromClient {
				src, dst = server, caller
			}
			e.push(at, src, dst, ex.Msg.Encode())
			at = at.Add(20 * time.Millisecond)
		}
		// A Refresh pair, a CreatePermission stale-nonce error (0x0118),
		// an Allocate error (0x0113), and Send/Data indications.
		for _, ex := range ice.RefreshExchange(e.rng, creds) {
			src, dst := caller, server
			if !ex.FromClient {
				src, dst = server, caller
			}
			e.push(at, src, dst, ex.Msg.Encode())
			at = at.Add(20 * time.Millisecond)
		}
		permErr := &stun.Message{Type: stun.TypeCreatePermissionErr, TransactionID: e.rng.TxID()}
		permErr.Add(stun.AttrErrorCode, stun.EncodeErrorCode(stun.ErrorCode{Code: 438, Reason: "Stale Nonce"}))
		permErr.Add(stun.AttrNonce, []byte("fresh-nonce"))
		e.push(at, server, caller, permErr.Encode())
		at = at.Add(20 * time.Millisecond)
		allocErr := &stun.Message{Type: stun.TypeAllocateError, TransactionID: e.rng.TxID()}
		allocErr.Add(stun.AttrErrorCode, stun.EncodeErrorCode(stun.ErrorCode{Code: 437, Reason: "Allocation Mismatch"}))
		e.push(at, server, caller, allocErr.Encode())
		at = at.Add(20 * time.Millisecond)
		si := ice.SendIndication(e.rng, callee, e.rng.Bytes(48))
		e.push(at, caller, server, si.Encode())
		di := ice.DataIndication(e.rng, callee, e.rng.Bytes(48), nil)
		e.push(at.Add(15*time.Millisecond), server, caller, di.Encode())
		// Compliant ChannelData on the bound channel.
		for i := 0; i < 4; i++ {
			cd := &stun.ChannelData{ChannelNumber: 0x4000, Data: e.rng.Bytes(120)}
			e.push(at.Add(time.Duration(30+i*10)*time.Millisecond), caller, server, cd.Encode())
		}
	}

	// --- Periodic connectivity checks through the call. For WhatsApp
	// these Binding Requests are its one compliant STUN type and its
	// dominant STUN volume; responses (0x0101, non-compliant for both
	// apps) come back only occasionally. ---
	checks := int(cfg.Duration / (500 * time.Millisecond))
	if checks < 4 {
		checks = 4
	}
	for i := 0; i < checks; i++ {
		ts := cfg.Start.Add(time.Duration(i+1) * cfg.Duration / time.Duration(checks+1))
		req := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: e.rng.TxID()}
		req.Add(stun.AttrUsername, []byte("caller:callee"))
		req.Add(stun.AttrPriority, []byte{0x6e, 0, 0x1e, 0xff})
		if p.bindingReqUndef {
			req.Add(stun.AttrType(0x4005), e.rng.Bytes(4))
		}
		stun.AddFingerprint(req)
		e.push(ts, caller, server, req.Encode())
		if i%4 == 0 {
			resp := &stun.Message{Type: stun.TypeBindingSuccess, TransactionID: req.TransactionID}
			resp.Add(stun.AttrXORMappedAddress, stun.EncodeXORAddress(netip.AddrPortFrom(netip.MustParseAddr("198.51.100.1"), 40020), req.TransactionID))
			resp.Add(stun.AttrType(0x4002), e.rng.Bytes(12))
			e.push(ts.Add(15*time.Millisecond), server, caller, resp.Encode())
		}
	}

	// --- The 0x0801/0x0802 burst before the callee joins (§5.2.1). ---
	burstAt := cfg.Start.Add(300 * time.Millisecond)
	for i := 0; i < p.burstPairs; i++ {
		tx := e.rng.TxID()
		m801 := &stun.Message{Type: stun.MessageType(0x0801), TransactionID: tx}
		m801.Add(stun.AttrType(0x4003), []byte{0xff})
		// Pad the message to exactly 500 bytes with the zero-filled
		// 0x4004 attribute: 20 header + 8 (0x4003 TLV) + 4 = 468 value.
		m801.Add(stun.AttrType(0x4004), make([]byte, 468))
		raw := m801.Encode()
		e.push(burstAt, caller, server, raw)

		m802 := &stun.Message{Type: stun.MessageType(0x0802), TransactionID: tx}
		m802.Add(stun.AttrType(0x4003), []byte{0xff})
		// 40 bytes total: 20 header + 8 + a 12-byte filler attribute.
		m802.Add(stun.AttrType(0x4003), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
		e.push(burstAt.Add(70*time.Microsecond), server, caller, m802.Encode())
		burstAt = burstAt.Add(140 * time.Microsecond) // ~2.2 ms total
	}

	// WhatsApp's other undefined types 0x0803-0x0805.
	for i, t := range p.extraUndefTypes {
		m := &stun.Message{Type: t, TransactionID: e.rng.TxID()}
		m.Add(stun.AttrType(0x4003), []byte{0xff})
		at := cfg.Start.Add(time.Duration(i+1) * cfg.Duration / time.Duration(len(p.extraUndefTypes)+1))
		e.push(at, caller, server, m.Encode())
	}

	// --- Media. ---
	streams := []struct {
		ms  *mediaStream
		out bool
	}{
		{newMediaStream(e.rng, e.rng.Uint32(), p.rtpPayloads[0], 960), true},
		{newMediaStream(e.rng, e.rng.Uint32(), p.rtpPayloads[0], 3000), true},
		{newMediaStream(e.rng, e.rng.Uint32(), p.rtpPayloads[0], 960), false},
		{newMediaStream(e.rng, e.rng.Uint32(), p.rtpPayloads[0], 3000), false},
	}
	rate := cfg.rate()
	interval := time.Second / time.Duration(rate)
	tick := 0
	ptIdx := 0
	rtcpIdx := 0
	for at := cfg.Start.Add(400 * time.Millisecond); at.Before(end); at = at.Add(interval) {
		relayNow := at.Before(relayUntil)
		peer := callee
		if relayNow {
			peer = server
		}
		for i := range streams {
			st := &streams[i]
			tick++
			src, dst := caller, peer
			if !st.out {
				src, dst = peer, caller
			}
			if tick%p.rtcpEvery == 0 {
				payload := metaRTCP(e, p, &rtcpIdx, st.ms, at, tick)
				e.push(at.Add(e.jitter(3)), src, dst, payload)
				continue
			}
			st.ms.pt = p.rtpPayloads[ptIdx%len(p.rtpPayloads)]
			ptIdx++
			size := 90
			video := i%2 == 1
			if video {
				size = e.mediaSize(at, true, 500+e.rng.IntN(500))
			}
			e.push(e.mediaAt(at, video, 3), src, dst, st.ms.appendNext(make([]byte, 0, rtp.HeaderLen+size), size, nil, false))

			if tick%p.propEvery == 0 {
				e.push(at.Add(e.jitter(4)), src, dst, e.rng.AppendBytes(append(make([]byte, 0, 32), 0x2f, 0x01), 30))
			}
		}
	}

	// --- Teardown: undefined 0x0800 messages to the TURN servers. ---
	for i := 0; i < p.teardown0800; i++ {
		m := &stun.Message{Type: stun.MessageType(0x0800), TransactionID: e.rng.TxID()}
		m.Add(stun.AttrType(0x4000), e.rng.Bytes(4))
		m.Add(stun.AttrXORRelayedAddress, stun.EncodeXORAddress(netip.AddrPortFrom(e.serverAddr, 49152), m.TransactionID))
		at := end.Add(-time.Duration(p.teardown0800-i) * 30 * time.Millisecond)
		e.push(at, caller, server, m.Encode())
	}
}

// twccFCI builds a small valid transport-wide congestion control
// feedback FCI reflecting the stream's recent packets.
func twccFCI(e *env, ms *mediaStream) []byte {
	n := 4 + e.rng.IntN(12)
	fb := rtcp.TWCCFeedback{
		BaseSequence:    ms.seq - uint16(n),
		PacketCount:     uint16(n),
		ReferenceTimeMS: 64 * int64(e.rng.IntN(1000)),
		FeedbackCount:   uint8(e.rng.IntN(256)),
	}
	for i := 0; i < n; i++ {
		if e.rng.IntN(20) == 0 {
			fb.Statuses = append(fb.Statuses, rtcp.TWCCNotReceived)
			continue
		}
		fb.Statuses = append(fb.Statuses, rtcp.TWCCSmallDelta)
		fb.DeltasUS = append(fb.DeltasUS, 250*int64(e.rng.IntN(80)))
	}
	fci, err := rtcp.EncodeTWCCFCI(fb)
	if err != nil {
		panic("appsim: twcc: " + err.Error())
	}
	return fci
}

// metaRTCP builds a compliant plaintext RTCP compound, cycling through
// the profile's observed packet types.
func metaRTCP(e *env, p metaProfile, idx *int, ms *mediaStream, at time.Time, tick int) []byte {
	t := p.rtcpTypes[*idx%len(p.rtcpTypes)]
	*idx++
	switch t {
	case rtcp.TypeSenderReport:
		sr := rtcp.EncodeSR(&rtcp.SenderReport{
			SSRC: ms.ssrc,
			Info: rtcp.SenderInfo{NTPTimestamp: ntpTime(at), RTPTimestamp: ms.ts, PacketCount: uint32(tick), OctetCount: uint32(tick) * 400},
		})
		// Only compound with SDES when the app's observed type set
		// includes it (WhatsApp shows 202, Messenger does not).
		for _, rt := range p.rtcpTypes {
			if rt == rtcp.TypeSDES {
				sdes := rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: ms.ssrc, Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "meta@rtc"}}}}})
				return rtcp.Compound(sr, sdes)
			}
		}
		return sr
	case rtcp.TypeReceiverReport:
		return rtcp.EncodeRR(&rtcp.ReceiverReport{SSRC: ms.ssrc, Reports: []rtcp.ReportBlock{{SSRC: ms.ssrc + 1, HighestSeq: uint32(ms.seq), Jitter: 20}}})
	case rtcp.TypeSDES:
		return rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: ms.ssrc, Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "meta@rtc"}}}}})
	case rtcp.TypeRTPFB:
		return rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{
			FMT: rtcp.FBTWCC, SenderSSRC: ms.ssrc, MediaSSRC: ms.ssrc + 1,
			FCI: twccFCI(e, ms),
		})
	default: // PSFB: alternate PLI and REMB
		if *idx%2 == 0 {
			return rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBPLI, SenderSSRC: ms.ssrc, MediaSSRC: ms.ssrc + 1})
		}
		fci, err := rtcp.EncodeREMBFCI(rtcp.REMB{BitrateBPS: 800_000 + uint64(e.rng.IntN(2_000_000)), SSRCs: []uint32{ms.ssrc + 1}})
		if err != nil {
			panic("appsim: remb: " + err.Error())
		}
		return rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBAFB, SenderSSRC: ms.ssrc, MediaSSRC: 0, FCI: fci})
	}
}
