package appsim

import (
	"encoding/binary"
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
)

// Discord wire behaviour (paper §5.2.2, §5.2.3, §5.3):
//
//   - RTP and RTCP only; no STUN at all (media always rides through
//     Discord's relay infrastructure in every network configuration);
//   - 4.91% of RTP messages carry one-byte-form (0xBEDE) header
//     extensions whose element ID is 0 with a non-zero length;
//   - 2.58% of RTP messages use undefined extension profiles in
//     0x0084-0xFBD2, exclusively on payload type 120;
//   - every RTCP message is encrypted with a proprietary scheme (not
//     SRTCP) and ends with a 3-byte trailer: a 2-byte monotonic counter
//     and a direction byte (0x80 client→server, 0x00 server→client);
//   - ~25% of Transport Layer Feedback (205) messages use sender
//     SSRC 0.
var discordRTPPayloads = []uint8{96, 101, 102, 120}

var discordRTCPTypes = []rtcp.PacketType{
	rtcp.TypeSenderReport, rtcp.TypeReceiverReport, rtcp.TypeApp,
	rtcp.TypeRTPFB, rtcp.TypePSFB,
}

func generateDiscord(e *env) {
	cfg := e.cfg
	caller := netip.AddrPortFrom(e.callerLocal, 50030)
	server := netip.AddrPortFrom(e.serverAddr, 50001) // Discord voice port

	streams := []struct {
		ms  *mediaStream
		out bool
	}{
		{newMediaStream(e.rng, e.rng.Uint32(), 120, 960), true},
		{newMediaStream(e.rng, e.rng.Uint32(), 96, 3000), true},
		{newMediaStream(e.rng, e.rng.Uint32(), 120, 960), false},
		{newMediaStream(e.rng, e.rng.Uint32(), 96, 3000), false},
	}

	rate := cfg.rate()
	interval := time.Second / time.Duration(rate)
	end := cfg.Start.Add(cfg.Duration)
	tick := 0
	ptIdx := 0
	rtcpIdx := 0
	var rtcpCounter uint16 = 1
	fbCount := 0

	for at := cfg.Start; at.Before(end); at = at.Add(interval) {
		for i := range streams {
			st := &streams[i]
			tick++
			src, dst := caller, server
			dirByte := byte(0x80) // client→server
			if !st.out {
				src, dst = server, caller
				dirByte = 0x00
			}

			// RTCP ≈ 7.9/91.4 of media cadence (coprime to the stream count
			// so both directions and all SSRCs emit RTCP).
			if tick%13 == 0 {
				t := discordRTCPTypes[rtcpIdx%len(discordRTCPTypes)]
				rtcpIdx++
				payload := discordRTCP(e, t, st.ms, &fbCount)
				// Proprietary trailer: 2-byte monotonic counter plus the
				// direction byte.
				var trailer [3]byte
				binary.BigEndian.PutUint16(trailer[:2], rtcpCounter)
				rtcpCounter++
				trailer[2] = dirByte
				e.push(at.Add(e.jitter(3)), src, dst, append(payload, trailer[:]...))
				continue
			}

			st.ms.pt = discordRTPPayloads[ptIdx%len(discordRTPPayloads)]
			ptIdx++
			size := 110
			video := i%2 == 1
			if video {
				size = e.mediaSize(at, true, 550+e.rng.IntN(450))
			}

			var ext *rtp.Extension
			var extData [8]byte
			switch {
			case tick%39 == 0: // ≈2.58%: undefined profile, pt 120 only
				st.ms.pt = 120
				profile := uint16(0x0084 + e.rng.IntN(0xFBD2-0x0084))
				if profile == rtp.ProfileOneByte || profile&rtp.ProfileTwoByteMask == rtp.ProfileTwoByteBase {
					profile = 0x0085
				}
				ext = &rtp.Extension{Profile: profile, Data: e.rng.AppendBytes(extData[:0], 8)}
			case tick%21 == 7: // ≈4.91%: BEDE with ID=0 and a length
				ext = &rtp.Extension{
					Profile: rtp.ProfileOneByte,
					// First byte 0x02: ID 0, length nibble 2 → 3 payload
					// bytes, violating RFC 8285's padding semantics.
					Data: []byte{0x02, 0xd1, 0xd2, 0xd3, 0x31, 0xee, 0x00, 0x00},
				}
			case tick%5 == 0: // ordinary compliant extension
				ext = &rtp.Extension{
					Profile:  rtp.ProfileOneByte,
					Elements: []rtp.ExtensionElement{{ID: 1, Payload: e.rng.AppendBytes(extData[:0], 3)}},
				}
			}
			// Every extension above encodes to at most 12 bytes.
			e.push(e.mediaAt(at, video, 3), src, dst, st.ms.appendNext(make([]byte, 0, rtp.HeaderLen+12+size), size, ext, false))

			// Fully proprietary control datagrams ≈0.7%.
			if tick%141 == 0 {
				e.push(at.Add(e.jitter(4)), src, dst, e.rng.AppendBytes(append(make([]byte, 0, 22), 0x13, 0x37), 20))
			}
		}
	}
}

// discordRTCP builds an RTCP packet with a proprietarily encrypted body:
// valid header and SSRC, opaque contents (the paper could not decode NTP
// timestamps and found no SRTCP fields).
func discordRTCP(e *env, t rtcp.PacketType, ms *mediaStream, fbCount *int) []byte {
	switch t {
	case rtcp.TypeSenderReport:
		body := make([]byte, 24)
		binary.BigEndian.PutUint32(body[:4], ms.ssrc)
		copy(body[4:], e.rng.Bytes(20)) // encrypted sender info
		return rtcp.EncodeRaw(t, 0, body)
	case rtcp.TypeReceiverReport:
		body := make([]byte, 4)
		binary.BigEndian.PutUint32(body, ms.ssrc)
		return rtcp.EncodeRaw(t, 0, body)
	case rtcp.TypeApp:
		body := make([]byte, 12)
		binary.BigEndian.PutUint32(body[:4], ms.ssrc)
		copy(body[4:8], "dsco")
		copy(body[8:], e.rng.Bytes(4))
		return rtcp.EncodeRaw(t, 1, body)
	default: // RTPFB / PSFB
		body := make([]byte, 12)
		ssrc := ms.ssrc
		// ~25% of type-205 feedback uses sender SSRC 0 (§5.3).
		if t == rtcp.TypeRTPFB {
			*fbCount++
			if *fbCount%4 == 0 {
				ssrc = 0
			}
		}
		binary.BigEndian.PutUint32(body[:4], ssrc)
		binary.BigEndian.PutUint32(body[4:8], ms.ssrc+1)
		copy(body[8:], e.rng.Bytes(4)) // encrypted FCI
		fmtVal := uint8(15)
		if t == rtcp.TypePSFB {
			fmtVal = 1
		}
		return rtcp.EncodeRaw(t, fmtVal, body)
	}
}
