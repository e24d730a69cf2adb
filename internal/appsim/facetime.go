package appsim

import (
	"encoding/binary"
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/quicwire"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

// FaceTime wire behaviour (paper §5.2.1, §5.2.2, §5.3):
//
//   - protocols: STUN, TURN, RTP, QUIC — no RTCP;
//   - every RTP message carries one or more header extensions with
//     undefined profile identifiers (0x8001, 0x8500, 0x8D00) across
//     payload types 100, 104, 108, 13, 20;
//   - Binding Requests carry undefined attribute 0x8007 (0x00000009
//     always; 0x00000000 Wi-Fi P2P; 0x00000005 cellular) and repeat the
//     same transaction ID once per second with no response ever seen;
//   - 29.4% of Binding Success Responses carry an ALTERNATE-SERVER with
//     address family 0x00, and all carry undefined attribute 0x8008;
//   - TURN Data Indications include a spurious 4-byte CHANNEL-NUMBER of
//     0x00000000; ChannelData frames ride channels never bound on the
//     stream;
//   - relay mode: 89.2% of datagrams carry a 0x6000 proprietary header
//     (8-19 bytes, 2-byte length of the remainder) before the RTP
//     message; P2P shows fewer than 50 such headers per call;
//   - cellular (always P2P): ~10% of traffic is 36-byte fully
//     proprietary keepalives starting 0xDEADBEEFCAFE with two trailing
//     4-byte counters, at 20 packets per second.
var faceTimeRTPPayloads = []uint8{100, 104, 108, 13, 20}

var faceTimeExtProfiles = []uint16{0x8001, 0x8500, 0x8D00}

// faceTimeHeaderMax is the longest header appendFaceTimeHeader writes.
const faceTimeHeaderMax = 19

// appendFaceTimeHeader appends the 0x6000 relay proprietary header for
// a message of msgLen bytes, which the caller appends after it. Header
// length varies 8-19 bytes total.
func appendFaceTimeHeader(e *env, dst []byte, msgLen int) []byte {
	extra := 4 + e.rng.IntN(12) // bytes between the length field and msg
	dst = append(dst, 0x60, 0x00, byte((extra+msgLen)>>8), byte(extra+msgLen))
	return e.rng.AppendBytes(dst, extra)
}

func generateFaceTime(e *env) {
	cfg := e.cfg
	relayPhase := e.mode == ModeRelay

	caller := netip.AddrPortFrom(e.callerLocal, 50010)
	peerAddr := e.peer(relayPhase)
	peerPort := uint16(3478)
	if !relayPhase {
		peerPort = 50012
	}
	peer := netip.AddrPortFrom(peerAddr, peerPort)

	// STUN stream: modified Binding Requests repeated with a constant
	// transaction ID, once per second, never answered.
	stunSrc := netip.AddrPortFrom(e.callerLocal, 50011)
	stunDst := netip.AddrPortFrom(e.stunAddr, 3478)
	attr8007 := []byte{0, 0, 0, 9}
	if e.mode == ModeP2P {
		if cfg.Network == Cellular {
			attr8007 = []byte{0, 0, 0, 5}
		} else {
			attr8007 = []byte{0, 0, 0, 0}
		}
	}
	fixedTx := e.rng.TxID()
	repeats := int(cfg.Duration / time.Second)
	if repeats > 60 {
		repeats = 60
	}
	if repeats < 5 {
		repeats = 5
	}
	for i := 0; i < repeats; i++ {
		req := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: fixedTx}
		req.Add(stun.AttrType(0x8007), attr8007)
		at := cfg.Start.Add(time.Duration(i) * cfg.Duration / time.Duration(repeats))
		e.push(at.Add(e.jitter(5)), stunSrc, stunDst, req.Encode())
	}

	// Binding Success Responses from the server on a second STUN
	// exchange: undefined 0x8008 on all, bad ALTERNATE-SERVER family on
	// 29.4%.
	respCount := repeats / 2
	if respCount < 3 {
		respCount = 3
	}
	for i := 0; i < respCount; i++ {
		resp := &stun.Message{Type: stun.TypeBindingSuccess, TransactionID: e.rng.TxID()}
		if i*1000 < respCount*294 {
			// family 0x00: encode by hand.
			bad := []byte{0x00, 0x00, 0x0d, 0x96, 203, 0, 113, 22}
			resp.Add(stun.AttrAlternateServer, bad)
		} else {
			resp.Add(stun.AttrAlternateServer, stun.EncodeMappedAddress(netip.AddrPortFrom(e.stunAddr, 3478)))
		}
		resp.Add(stun.AttrType(0x8008), e.rng.Bytes(16))
		at := cfg.Start.Add(time.Duration(i+1) * cfg.Duration / time.Duration(respCount+1))
		e.push(at.Add(e.jitter(5)), stunDst, stunSrc, resp.Encode())
	}

	// TURN stream (relay mode): Data Indications with the spurious
	// CHANNEL-NUMBER, and unbound ChannelData frames.
	if relayPhase {
		turnDst := netip.AddrPortFrom(e.serverAddr, 3478)
		peerMapped := netip.AddrPortFrom(e.calleeAddr, 50012)
		for i := 0; i < 6; i++ {
			at := cfg.Start.Add(time.Duration(i) * cfg.Duration / 6)
			di := ice.DataIndication(e.rng, peerMapped, e.rng.Bytes(40), []stun.Attribute{
				{Type: stun.AttrChannelNumber, Value: []byte{0, 0, 0, 0}},
			})
			e.push(at.Add(e.jitter(5)), turnDst, caller, di.Encode())
			cd := &stun.ChannelData{ChannelNumber: 0x4500, Data: e.rng.Bytes(60)}
			e.push(at.Add(50*time.Millisecond), caller, turnDst, cd.Encode())
		}
	}

	// QUIC stream: a compliant Initial/Handshake exchange plus short
	// headers.
	quicSrc := netip.AddrPortFrom(e.callerLocal, 50013)
	quicDst := netip.AddrPortFrom(e.serverAddr, 443)
	dcid := e.rng.Bytes(8)
	scid := e.rng.Bytes(8)
	qt := cfg.Start.Add(200 * time.Millisecond)
	e.push(qt, quicSrc, quicDst, quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, dcid, scid, nil, e.rng.Bytes(1100)))
	e.push(qt.Add(30*time.Millisecond), quicDst, quicSrc, quicwire.BuildLong(quicwire.TypeHandshake, quicwire.Version1, scid, dcid, nil, e.rng.Bytes(900)))
	e.push(qt.Add(40*time.Millisecond), quicSrc, quicDst, quicwire.BuildLong(quicwire.TypeZeroRTT, quicwire.Version1, dcid, scid, nil, e.rng.Bytes(300)))
	for i := 0; i < 8; i++ {
		at := qt.Add(time.Duration(i+2) * cfg.Duration / 12)
		e.push(at, quicSrc, quicDst, quicwire.BuildShort(scid, e.rng.Bytes(80)))
		e.push(at.Add(15*time.Millisecond), quicDst, quicSrc, quicwire.BuildShort(dcid, e.rng.Bytes(80)))
	}

	// Media: RTP with undefined header-extension profiles on every
	// message.
	audioOut := newMediaStream(e.rng, e.rng.Uint32(), 104, 960)
	videoOut := newMediaStream(e.rng, e.rng.Uint32(), 100, 3000)
	audioIn := newMediaStream(e.rng, e.rng.Uint32(), 104, 960)
	videoIn := newMediaStream(e.rng, e.rng.Uint32(), 100, 3000)
	streams := []struct {
		ms    *mediaStream
		out   bool
		video bool
	}{
		{audioOut, true, false}, {videoOut, true, true},
		{audioIn, false, false}, {videoIn, false, true},
	}

	rate := cfg.rate()
	interval := time.Second / time.Duration(rate)
	end := cfg.Start.Add(cfg.Duration)
	tick := 0
	ptIdx := 0
	p2pHeaderBudget := 10 // <50 proprietary headers per P2P call
	for at := cfg.Start; at.Before(end); at = at.Add(interval) {
		for _, st := range streams {
			tick++
			src, dst := caller, peer
			if !st.out {
				src, dst = peer, caller
			}
			pt := faceTimeRTPPayloads[ptIdx%len(faceTimeRTPPayloads)]
			ptIdx++
			st.ms.pt = pt
			size := 100
			if st.video {
				size = e.mediaSize(at, true, 600+e.rng.IntN(400))
			}
			profile := faceTimeExtProfiles[tick%len(faceTimeExtProfiles)]
			var extData [8]byte
			ext := &rtp.Extension{Profile: profile, Data: e.rng.AppendBytes(extData[:0], len(extData))}
			msgLen := rtp.HeaderLen + 4 + len(extData) + size

			// Relay mode: 89.2% of datagrams behind the 0x6000 header.
			// P2P: a small fixed number per call.
			wrap := false
			if relayPhase {
				wrap = tick%28 != 0 // ≈ 96.4% of media ≈ 89.2% of all datagrams
			} else if p2pHeaderBudget > 0 && tick%97 == 0 {
				wrap = true
				p2pHeaderBudget--
			}
			pkt := make([]byte, 0, faceTimeHeaderMax+msgLen)
			if wrap {
				pkt = appendFaceTimeHeader(e, pkt, msgLen)
			}
			pkt = st.ms.appendNext(pkt, size, ext, false)
			e.push(e.mediaAt(at, st.video, 3), src, dst, pkt)
		}
	}

	// Cellular keepalives: 36-byte fully proprietary datagrams at 20
	// packets per second with two increasing counters.
	if cfg.Network == Cellular {
		var c1, c2 uint32 = 1, 100
		ka := netip.AddrPortFrom(e.callerLocal, 50014)
		kaDst := netip.AddrPortFrom(e.calleeAddr, 50014)
		for at := cfg.Start; at.Before(end); at = at.Add(50 * time.Millisecond) {
			payload := make([]byte, 36)
			copy(payload, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE})
			binary.BigEndian.PutUint32(payload[28:], c1)
			binary.BigEndian.PutUint32(payload[32:], c2)
			c1++
			c2 += 3
			e.push(at, ka, kaDst, payload)
		}
	} else {
		// Wi-Fi shows only a trace amount of these keepalives (<1%).
		payload := make([]byte, 36)
		copy(payload, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE})
		binary.BigEndian.PutUint32(payload[28:], 1)
		binary.BigEndian.PutUint32(payload[32:], 100)
		e.push(cfg.Start.Add(cfg.Duration/2), caller, peer, payload)
	}
}
