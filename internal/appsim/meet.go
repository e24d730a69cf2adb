package appsim

import (
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/srtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

// Google Meet wire behaviour (paper §5.2.1, §5.2.3):
//
//   - the fullest standard STUN/TURN usage of any studied app: ICE
//     connectivity checks, GOOG-PING (0x0200/0x0300), and the complete
//     TURN lifecycle, all compliant — 15 of 16 observed types;
//   - the one exception is 0x0003: mid-call Allocate requests repeat in
//     a periodic ping-pong as connectivity checks, which the paper's
//     criterion 5 flags (Allocate is for session setup);
//   - in relay mode, video rides in ChannelData frames on the bound
//     channel (driving the large 19.8% STUN/TURN message share);
//   - RTCP is SRTCP-protected; in relay mode under Wi-Fi most messages
//     carry only the 4-byte E-flag+index without the 10-byte
//     authentication tag RFC 3711 requires — the paper's headline
//     RTCP violation (all 7 observed types non-compliant);
//   - RTP itself is fully compliant across 11 payload types;
//   - on cellular, relay for the first 30 seconds then P2P.
var meetRTPPayloads = []uint8{100, 103, 104, 109, 111, 114, 35, 36, 63, 96, 97}

var meetRTCPTypes = []rtcp.PacketType{
	rtcp.TypeSenderReport, rtcp.TypeReceiverReport, rtcp.TypeSDES,
	rtcp.TypeApp, rtcp.TypeRTPFB, rtcp.TypePSFB, rtcp.TypeXR,
}

func generateMeet(e *env) {
	cfg := e.cfg
	caller := netip.AddrPortFrom(e.callerLocal, 50040)
	callee := netip.AddrPortFrom(e.calleeAddr, 50042)
	server := netip.AddrPortFrom(e.serverAddr, 3478)
	stunSrv := netip.AddrPortFrom(e.stunAddr, 19302)
	end := cfg.Start.Add(cfg.Duration)

	var relayUntil time.Time
	switch e.mode {
	case ModeRelay:
		relayUntil = end
	case ModeRelayThenP2P:
		relayUntil = cfg.Start.Add(switchPoint(cfg))
	default:
		relayUntil = cfg.Start
	}

	// --- Candidate gathering: compliant server binding. ---
	at := cfg.Start.Add(30 * time.Millisecond)
	req := ice.ServerBindingRequest(e.rng)
	e.push(at, caller, stunSrv, req.Raw)
	mapped := netip.AddrPortFrom(netip.MustParseAddr("198.51.100.1"), 40040)
	e.push(at.Add(20*time.Millisecond), stunSrv, caller, ice.ServerBindingResponse(req, mapped).Raw)

	// --- ICE connectivity checks with short-term credentials. ---
	local := &ice.Agent{Ufrag: "meetL", Password: "meetlocalpassword012345", Controlling: true, TieBreaker: e.rng.Uint64()}
	remote := &ice.Agent{Ufrag: "meetR", Password: "meetremotepassword01234"}
	at = at.Add(60 * time.Millisecond)
	for i := 0; i < 3; i++ {
		creq := local.BindingRequest(e.rng, remote, 0x6e7f1eff, i == 2)
		e.push(at, caller, callee, creq.Raw)
		e.push(at.Add(12*time.Millisecond), callee, caller, remote.BindingResponse(creq, mapped).Raw)
		at = at.Add(40 * time.Millisecond)
	}

	// --- TURN allocation lifecycle (compliant). ---
	creds := ice.TURNCredentials{Username: "meet", Realm: "google.com", Nonce: "meetnonce", Password: "pw"}
	relayed := e.relay.Allocate(mapped)
	seq := ice.TURNAllocation(e.rng, creds, relayed, mapped, callee, 0x4000)
	for _, ex := range seq {
		src, dst := caller, server
		if !ex.FromClient {
			src, dst = server, caller
		}
		e.push(at, src, dst, ex.Msg.Encode())
		at = at.Add(18 * time.Millisecond)
	}
	// Early media through Send/Data indications before the channel
	// binding takes effect.
	si := ice.SendIndication(e.rng, callee, e.rng.Bytes(60))
	e.push(at, caller, server, si.Encode())
	di := ice.DataIndication(e.rng, callee, e.rng.Bytes(60), nil)
	e.push(at.Add(10*time.Millisecond), server, caller, di.Encode())
	// A Refresh pair mid-call.
	for _, ex := range ice.RefreshExchange(e.rng, creds) {
		src, dst := caller, server
		if !ex.FromClient {
			src, dst = server, caller
		}
		e.push(cfg.Start.Add(cfg.Duration/2), src, dst, ex.Msg.Encode())
	}

	// --- Periodic ICE consent-freshness checks (compliant binding
	// request/response pairs, libwebrtc-style). ---
	checks := int(cfg.Duration / (500 * time.Millisecond))
	if checks < 4 {
		checks = 4
	}
	for i := 0; i < checks; i++ {
		ts := cfg.Start.Add(time.Duration(i+1) * cfg.Duration / time.Duration(checks+1))
		creq := local.BindingRequest(e.rng, remote, 0x6e7f1eff, false)
		e.push(ts, caller, callee, creq.Raw)
		e.push(ts.Add(8*time.Millisecond), callee, caller, remote.BindingResponse(creq, mapped).Raw)
	}

	// --- GOOG-PING keepalives (0x0200/0x0300). ---
	pings := int(cfg.Duration / (2 * time.Second))
	if pings < 2 {
		pings = 2
	}
	for i := 0; i < pings; i++ {
		ts := cfg.Start.Add(time.Duration(i+1) * cfg.Duration / time.Duration(pings+1))
		id := e.rng.TxID()
		e.push(ts, caller, callee, ice.GoogPing(e.rng, false, id).Raw)
		e.push(ts.Add(10*time.Millisecond), callee, caller, ice.GoogPing(e.rng, true, id).Raw)
	}

	// --- Mid-call Allocate ping-pong (the 0x0003 violation). ---
	pp := int(cfg.Duration / (2 * time.Second))
	if pp < 6 {
		pp = 6
	}
	for i := 0; i < pp; i++ {
		ts := cfg.Start.Add(time.Duration(i+1) * cfg.Duration / time.Duration(pp+1))
		areq := &stun.Message{Type: stun.TypeAllocateRequest, TransactionID: e.rng.TxID()}
		areq.Add(stun.AttrRequestedTranspt, stun.EncodeRequestedTransport(17))
		areq.Add(stun.AttrUsername, []byte(creds.Username))
		areq.Add(stun.AttrRealm, []byte(creds.Realm))
		areq.Add(stun.AttrNonce, []byte(creds.Nonce))
		e.push(ts, caller, server, areq.Encode())
		aok := &stun.Message{Type: stun.TypeAllocateSuccess, TransactionID: areq.TransactionID}
		aok.Add(stun.AttrXORRelayedAddress, stun.EncodeXORAddress(relayed, areq.TransactionID))
		aok.Add(stun.AttrLifetime, []byte{0, 0, 2, 0x58})
		e.push(ts.Add(15*time.Millisecond), server, caller, aok.Encode())
	}

	// --- Media. ---
	srtpCtx, err := srtp.NewContext(e.rng.Bytes(srtp.MasterKeyLen), e.rng.Bytes(srtp.MasterSaltLen))
	if err != nil {
		panic("appsim: meet srtp: " + err.Error())
	}
	streams := []struct {
		ms    *mediaStream
		out   bool
		video bool
	}{
		{newMediaStream(e.rng, e.rng.Uint32(), 111, 960), true, false},
		{newMediaStream(e.rng, e.rng.Uint32(), 96, 3000), true, true},
		{newMediaStream(e.rng, e.rng.Uint32(), 111, 960), false, false},
		{newMediaStream(e.rng, e.rng.Uint32(), 96, 3000), false, true},
	}
	rate := cfg.rate()
	interval := time.Second / time.Duration(rate)
	tick := 0
	ptIdx := 0
	rtcpIdx := 0
	var srtcpIndex uint32 = 1
	for ts := cfg.Start.Add(500 * time.Millisecond); ts.Before(end); ts = ts.Add(interval) {
		relayNow := ts.Before(relayUntil)
		for i := range streams {
			st := &streams[i]
			tick++
			peer := callee
			if relayNow {
				peer = server
			}
			src, dst := caller, peer
			if !st.out {
				src, dst = peer, caller
			}

			// RTCP (SRTCP-protected), ≈7.8% share.
			if tick%11 == 0 {
				plain := meetRTCP(e, &rtcpIdx, st.ms, ts, tick)
				omitTag := relayNow && cfg.Network == WiFiRelay
				prot, perr := srtpCtx.ProtectRTCP(plain, srtcpIndex, omitTag)
				if perr != nil {
					panic("appsim: meet srtcp: " + perr.Error())
				}
				srtcpIndex++
				e.push(ts.Add(e.jitter(3)), src, dst, prot)
				continue
			}

			st.ms.pt = meetRTPPayloads[ptIdx%len(meetRTPPayloads)]
			ptIdx++
			size := 95
			if st.video {
				size = e.mediaSize(ts, true, 600+e.rng.IntN(400))
			}
			// Relay mode: media rides in ChannelData on the bound
			// channel — this is what drives Meet's outsized STUN/TURN
			// message share in Table 2 and, by volume, makes STUN/TURN
			// the most compliant protocol after QUIC.
			pkt := make([]byte, 0, 4+rtp.HeaderLen+size)
			if relayNow {
				pkt = stun.AppendChannelDataHeader(pkt, 0x4000, rtp.HeaderLen+size)
			}
			pkt = st.ms.appendNext(pkt, size, nil, false)
			e.push(e.mediaAt(ts, st.video, 3), src, dst, pkt)

			// Fully proprietary ≈1.3%.
			if tick%77 == 0 {
				e.push(ts.Add(e.jitter(4)), src, dst, e.rng.AppendBytes(append(make([]byte, 0, 26), 0x21, 0x07), 24))
			}
		}
	}
}

// meetRTCP builds the plaintext compound for one SRTCP message, cycling
// the seven observed packet types.
func meetRTCP(e *env, idx *int, ms *mediaStream, at time.Time, tick int) []byte {
	t := meetRTCPTypes[*idx%len(meetRTCPTypes)]
	*idx++
	switch t {
	case rtcp.TypeSenderReport:
		return rtcp.EncodeSR(&rtcp.SenderReport{
			SSRC: ms.ssrc,
			Info: rtcp.SenderInfo{NTPTimestamp: ntpTime(at), RTPTimestamp: ms.ts, PacketCount: uint32(tick), OctetCount: uint32(tick) * 500},
		})
	case rtcp.TypeReceiverReport:
		return rtcp.EncodeRR(&rtcp.ReceiverReport{SSRC: ms.ssrc, Reports: []rtcp.ReportBlock{{SSRC: ms.ssrc + 2, Jitter: 11}}})
	case rtcp.TypeSDES:
		return rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: ms.ssrc, Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "meet@goog"}}}}})
	case rtcp.TypeApp:
		return rtcp.EncodeApp(&rtcp.App{Subtype: 1, SSRC: ms.ssrc, Name: [4]byte{'g', 'o', 'o', 'g'}, Data: e.rng.Bytes(8)})
	case rtcp.TypeRTPFB:
		return rtcp.EncodeFeedback(rtcp.TypeRTPFB, &rtcp.Feedback{FMT: rtcp.FBTWCC, SenderSSRC: ms.ssrc, MediaSSRC: ms.ssrc + 2, FCI: twccFCI(e, ms)})
	case rtcp.TypePSFB:
		return rtcp.EncodeFeedback(rtcp.TypePSFB, &rtcp.Feedback{FMT: rtcp.FBPLI, SenderSSRC: ms.ssrc, MediaSSRC: ms.ssrc + 2})
	default: // XR
		return rtcp.EncodeXR(&rtcp.XR{SSRC: ms.ssrc, Blocks: []rtcp.XRBlock{{BlockType: 4, Contents: e.rng.Bytes(8)}}})
	}
}
