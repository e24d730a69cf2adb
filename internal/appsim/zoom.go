package appsim

import (
	"encoding/binary"
	"math"
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

// Zoom wire behaviour (paper §5.2.1, §5.3):
//
//   - every RTP/RTCP datagram sits behind a 24-39 byte proprietary
//     header: a direction byte (0x00 client→server, 0x04 server→client;
//     0x01/0x05 when a type-7 wrapper is present), an SFU section with a
//     constant 4-byte media ID per stream, and a media-section type byte
//     (15 audio RTP, 16 video RTP, 33-35 RTCP, 7 wrapper);
//   - ~20% of datagrams are fully proprietary, 53% of those being
//     1000-byte filler messages of one repeated byte, sent in ramping
//     bursts at stream start (bandwidth probing);
//   - SSRCs come from a fixed per-network-configuration set and never
//     change across calls;
//   - 0.21% of RTP datagrams carry two RTP messages (payload type 110,
//     7-byte first payload, shared SSRC and timestamp);
//   - STUN is the classic RFC 3489 variant with undefined attribute
//     0x0101 in Binding Requests and 0x0103 in the server's Shared
//     Secret Requests, observed mid-call only in Wi-Fi P2P mode.
const (
	zoomDirToServer    = 0x00
	zoomDirFromServer  = 0x04
	zoomDirToServer7   = 0x01
	zoomDirFromServer7 = 0x05

	zoomTypeAudio   = 15
	zoomTypeVideo   = 16
	zoomTypeRTCP    = 33
	zoomTypeWrapper = 7
)

// zoomSSRCs returns the fixed SSRC set for a network configuration
// (§5.2.2: Zoom does not randomize SSRC values across calls).
func zoomSSRCs(n Network) [4]uint32 {
	switch n {
	case Cellular:
		return [4]uint32{0x1001401, 0x1001402, 0x1000401, 0x1000402}
	case WiFiP2P:
		return [4]uint32{0x1000801, 0x1000802, 0x1000401, 0x1000402}
	default: // Wi-Fi relay
		return [4]uint32{0x1000C01, 0x1000C02, 0x1000401, 0x1000402}
	}
}

// zoomRTPPayloadTypes is the observed payload-type set (Table 5).
var zoomRTPPayloadTypes = func() []uint8 {
	pts := []uint8{0, 3, 4, 5, 10, 12, 13, 19, 20, 25, 33, 35, 38, 41, 45, 46, 49, 59, 68, 69, 74, 75, 82, 83, 89, 92, 93, 95, 98, 99}
	for pt := uint8(102); pt <= 121; pt++ {
		pts = append(pts, pt)
	}
	return append(pts, 123, 126, 127)
}()

// zoomHeaderMax is the longest proprietary header appendZoomHeader
// writes.
const zoomHeaderMax = 39

// appendZoomHeader appends the proprietary header to dst. The header
// length varies 24-39 bytes; wrapped packets carry the type-7 byte plus
// the inner media type.
func appendZoomHeader(e *env, dst []byte, dirByte byte, mediaType byte, mediaID uint32, wrap bool) []byte {
	dst = append(dst, dirByte, 0x10)
	dst = binary.BigEndian.AppendUint32(dst, mediaID)
	// Opaque SFU fields (timestamps, flags). Drawn from the seeded rng;
	// kept odd-valued in the length-like positions so they can never
	// satisfy a classic-STUN exact-length parse.
	dst = e.rng.AppendBytes(dst, 8)
	if wrap {
		dst = append(dst, zoomTypeWrapper)
		dst = e.rng.AppendBytes(dst, 4)
	}
	dst = append(dst, mediaType)
	// Trailing opaque media-section fields; vary the total length.
	return e.rng.AppendBytes(dst, 9+e.rng.IntN(7))
}

func generateZoom(e *env) {
	cfg := e.cfg
	ssrcs := zoomSSRCs(cfg.Network)
	relayPhase := e.mode == ModeRelay

	peerAddr := e.peer(relayPhase)
	basePeerPort := uint16(8801)
	if !relayPhase {
		basePeerPort = 50002
	}
	// Each media stream rides its own 5-tuple, as the paper observed
	// ("a 4-byte field that remains constant for each RTP transport
	// stream (defined by 5-tuple) within a call").
	callerFor := func(i int) netip.AddrPort { return netip.AddrPortFrom(e.callerLocal, 50000+uint16(i)) }
	peerFor := func(i int) netip.AddrPort { return netip.AddrPortFrom(peerAddr, basePeerPort+uint16(i)) }
	caller, peer := callerFor(0), peerFor(0)

	dirOut, dirIn := byte(zoomDirToServer), byte(zoomDirFromServer)
	dirOut7, dirIn7 := byte(zoomDirToServer7), byte(zoomDirFromServer7)

	// Four media streams: caller audio/video out, callee audio/video in.
	type zstream struct {
		ms      *mediaStream
		mediaID uint32
		tuple   int
		out     bool
		video   bool
	}
	// Two bidirectional transport streams: one for audio, one for
	// video. The proprietary header's 4-byte media ID is constant per
	// 5-tuple (§5.3), shared by both directions.
	streams := make([]zstream, 4)
	for i, ssrc := range ssrcs {
		video := i%2 == 1
		tsStep := uint32(960)
		if video {
			tsStep = 3000
		}
		tuple := i % 2 // 0 = audio tuple, 1 = video tuple
		streams[i] = zstream{
			ms:      newMediaStream(e.rng, ssrc, 99, tsStep),
			mediaID: 0xA0000000 | uint32(tuple+1)<<8 | uint32(cfg.Seed&0xff),
			tuple:   tuple,
			out:     i < 2,
			video:   video,
		}
	}

	rate := cfg.rate()
	interval := time.Second / time.Duration(rate)
	end := cfg.Start.Add(cfg.Duration)

	mediaCount := 0
	ptIdx := 0
	rtcpEvery := 71 // ≈1.1% of media messages; coprime to stream count
	fillerEvery := 0

	// Pre-compute filler schedule: fully proprietary ≈ 20% of messages,
	// 53% of which are 1000-byte fillers in a ramping burst at stream
	// start, the rest opaque control datagrams spread across the call.
	totalMedia := 4 * rate * int(cfg.Duration/time.Second)
	fillerTarget := totalMedia * 20 / 79 * 53 / 100
	otherPropTarget := totalMedia*20/79 - fillerTarget
	if otherPropTarget > 0 {
		fillerEvery = totalMedia / otherPropTarget
	}

	// Filler burst: ramp over the first fifth of the call on the first
	// outgoing media stream's 5-tuple.
	burstDur := cfg.Duration / 5
	if fillerTarget > 0 && burstDur > 0 {
		fb := byte(0x01)
		if e.rng.IntN(2) == 1 {
			fb = 0x02
		}
		for i := 0; i < fillerTarget; i++ {
			// Square-root time mapping: inter-packet spacing shrinks as
			// the burst progresses, emulating the 0→500 pkt/s ramp.
			frac := float64(i) / float64(fillerTarget)
			at := cfg.Start.Add(time.Duration(math.Sqrt(frac) * float64(burstDur)))
			payload := make([]byte, 1000)
			for j := range payload {
				payload[j] = fb
			}
			e.push(at.Add(e.jitter(2)), caller, peer, payload)
		}
	}

	tick := 0
	for at := cfg.Start; at.Before(end); at = at.Add(interval) {
		for si := range streams {
			st := &streams[si]
			tick++
			src, dst := callerFor(st.tuple), peerFor(st.tuple)
			dOut, dOut7 := dirOut, dirOut7
			if !st.out {
				src, dst = dst, src
				dOut, dOut7 = dirIn, dirIn7
			}
			// Occasionally emit RTCP instead of media.
			if tick%rtcpEvery == 0 {
				sr := rtcp.EncodeSR(&rtcp.SenderReport{
					SSRC: st.ms.ssrc,
					Info: rtcp.SenderInfo{
						NTPTimestamp: ntpTime(at),
						RTPTimestamp: st.ms.ts,
						PacketCount:  uint32(mediaCount),
						OctetCount:   uint32(mediaCount * 600),
					},
				})
				sdes := rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{
					SSRC:  st.ms.ssrc,
					Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "zoom-client"}},
				}}})
				compound := rtcp.Compound(sr, sdes)
				payload := appendZoomHeader(e, make([]byte, 0, zoomHeaderMax+len(compound)), dOut, zoomTypeRTCP, st.mediaID, false)
				e.push(at.Add(e.jitter(3)), src, dst, append(payload, compound...))
				continue
			}

			mediaCount++
			pt := zoomRTPPayloadTypes[ptIdx%len(zoomRTPPayloadTypes)]
			ptIdx++
			st.ms.pt = pt
			size := 120
			mType := byte(zoomTypeAudio)
			if st.video {
				size = e.mediaSize(at, true, 700+e.rng.IntN(300))
				mType = zoomTypeVideo
			}

			// 0.21% of RTP datagrams carry two RTP messages (§5.3).
			if mediaCount%480 == 50 {
				st.ms.pt = 110
				payload := make([]byte, 0, zoomHeaderMax+2*rtp.HeaderLen+7+size)
				payload = appendZoomHeader(e, payload, dOut, mType, st.mediaID, false)
				payload = st.ms.appendNext(payload, 7, nil, false)
				// The second message shares the first's timestamp; the
				// stream's timestamp still advances by two steps.
				st.ms.ts -= st.ms.tsStep
				payload = st.ms.appendNext(payload, size, nil, false)
				st.ms.ts += st.ms.tsStep
				e.push(e.mediaAt(at, st.video, 3), src, dst, payload)
				continue
			}

			// 6.9% of relay/cellular media packets use the type-7
			// wrapper with the 0x01/0x05 direction bytes (§5.3).
			wrap := relayPhase && tick%14 == 0
			dir := dOut
			if wrap {
				dir = dOut7
			}
			payload := appendZoomHeader(e, make([]byte, 0, zoomHeaderMax+rtp.HeaderLen+size), dir, mType, st.mediaID, wrap)
			payload = st.ms.appendNext(payload, size, nil, false)
			e.push(e.mediaAt(at, st.video, 3), src, dst, payload)

			// Other fully proprietary control datagrams.
			if fillerEvery > 0 && tick%fillerEvery == 0 {
				ctrl := e.rng.AppendBytes(append(make([]byte, 0, 48), 0xAA, 0x55), 46)
				e.push(at.Add(e.jitter(4)), src, dst, ctrl)
			}
		}
	}

	// Mid-call STUN occurs only in Wi-Fi P2P mode (§4.1.3): classic RFC
	// 3489 Binding Requests with undefined attribute 0x0101, and Shared
	// Secret Requests from the server with undefined attribute 0x0103.
	if cfg.Network == WiFiP2P {
		stunSrc := netip.AddrPortFrom(e.callerLocal, 54000)
		stunDst := netip.AddrPortFrom(e.stunAddr, 3478)
		n := 3
		for i := 0; i < n; i++ {
			at := cfg.Start.Add(time.Duration(i+1) * cfg.Duration / time.Duration(n+1))
			req := &stun.Message{
				Type:          stun.TypeBindingRequest,
				Classic:       true,
				CookieWord:    e.rng.Uint32(),
				TransactionID: e.rng.TxID(),
			}
			req.Add(stun.AttrType(0x0101), []byte("12345678901234567890"))
			e.push(at, stunSrc, stunDst, req.Encode())

			ssr := &stun.Message{
				Type:          stun.TypeSharedSecretRequest,
				Classic:       true,
				CookieWord:    e.rng.Uint32(),
				TransactionID: e.rng.TxID(),
			}
			ssr.Add(stun.AttrType(0x0103), e.rng.Bytes(8))
			e.push(at.Add(40*time.Millisecond), stunDst, stunSrc, ssr.Encode())
		}
	}
}
