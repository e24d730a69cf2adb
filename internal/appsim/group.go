package appsim

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

// Group calls are the paper's declared future work (§2): it studies
// 1-on-1 calls only and notes that group-call compliance is open. This
// extension generates N-party SFU calls for the two conference-first
// applications (Zoom and Google Meet), captured from one participant's
// device, so the unchanged analysis pipeline can be pointed at them:
//
//   - every participant's media transits the SFU (group calls never go
//     P2P), so the capture shows one outgoing audio/video pair and
//     N-1 incoming pairs;
//   - participants join staggered; each join triggers the app's join
//     behaviour (Zoom: a fresh filler burst, the §5.3 rejoin
//     observation generalized; Meet: a CreatePermission refresh);
//   - Zoom's deterministic SSRC assignment (§5.2.2) becomes an actual
//     robustness hazard: with enough participants the fixed scheme
//     produces a collision, which the DPI surfaces as broken sequence
//     continuity on the shared SSRC.
type GroupCallConfig struct {
	// App must be Zoom or GoogleMeet.
	App App
	// Participants counts call members including the captured device
	// (minimum 3).
	Participants int
	Seed         uint64
	Start        time.Time
	Duration     time.Duration
	// MediaRate is the per-stream RTP rate (0 = default 25).
	MediaRate int
	// ForceSSRCCollision makes two remote Zoom participants share an
	// SSRC, demonstrating the RFC 3550 §8 collision hazard of
	// deterministic assignment.
	ForceSSRCCollision bool
}

// GenerateGroup produces a group-call capture from participant 0's
// viewpoint.
func GenerateGroup(cfg GroupCallConfig) (*Call, error) {
	if cfg.App != Zoom && cfg.App != GoogleMeet {
		return nil, fmt.Errorf("appsim: group calls implemented for Zoom and Google Meet, not %q", cfg.App)
	}
	if cfg.Participants < 3 {
		return nil, fmt.Errorf("appsim: group call needs at least 3 participants, got %d", cfg.Participants)
	}
	if cfg.Duration <= 0 || cfg.Start.IsZero() {
		return nil, fmt.Errorf("appsim: group call needs a start time and positive duration")
	}
	call := CallConfig{
		App: cfg.App, Network: WiFiRelay, Seed: cfg.Seed,
		Start: cfg.Start, Duration: cfg.Duration, MediaRate: cfg.MediaRate,
	}
	e := newEnv(call)
	e.mode = ModeRelay // group calls always ride the SFU
	switch cfg.App {
	case Zoom:
		generateZoomGroup(e, cfg)
	case GoogleMeet:
		generateMeetGroup(e, cfg)
	}
	e.generateSignaling()
	return e.finish(), nil
}

// groupJoinTime staggers participant arrivals across the first half of
// the call.
func groupJoinTime(cfg GroupCallConfig, participant int) time.Time {
	if participant <= 1 {
		return cfg.Start
	}
	span := cfg.Duration / 2
	return cfg.Start.Add(time.Duration(participant-1) * span / time.Duration(cfg.Participants))
}

// zoomGroupSSRC assigns SSRCs the way Zoom's deterministic scheme
// would: a fixed base per media kind with a participant offset. With
// ForceSSRCCollision the last participant reuses participant 1's SSRC.
func zoomGroupSSRC(cfg GroupCallConfig, participant int, video bool) uint32 {
	base := uint32(0x1000C01)
	if video {
		base = 0x1000C02
	}
	p := participant
	if cfg.ForceSSRCCollision && participant == cfg.Participants-1 {
		p = 1
	}
	return base + uint32(p)<<8
}

func generateZoomGroup(e *env, cfg GroupCallConfig) {
	call := e.cfg
	caller := netip.AddrPortFrom(e.callerLocal, 50000)
	sfu := netip.AddrPortFrom(e.serverAddr, 8801)
	rate := call.rate()
	interval := time.Second / time.Duration(rate)
	end := call.Start.Add(call.Duration)

	type gstream struct {
		ms      *mediaStream
		mediaID uint32
		out     bool
		video   bool
		from    time.Time
	}
	var streams []gstream
	for p := 0; p < cfg.Participants; p++ {
		join := groupJoinTime(cfg, p)
		for _, video := range []bool{false, true} {
			tsStep := uint32(960)
			if video {
				tsStep = 3000
			}
			ms := newMediaStream(e.rng, zoomGroupSSRC(cfg, p, video), 99, tsStep)
			streams = append(streams, gstream{
				ms:      ms,
				mediaID: 0xB0000000 | uint32(p)<<8,
				out:     p == 0,
				video:   video,
				from:    join,
			})
		}
		// Each join (including rejoins) triggers a filler burst (§5.3
		// generalized): a short ramp on the media 5-tuple.
		if p >= 1 {
			burst := 20 + e.rng.IntN(10)
			for i := 0; i < burst; i++ {
				frac := float64(i) / float64(burst)
				at := join.Add(time.Duration(math.Sqrt(frac) * float64(2*time.Second)))
				payload := make([]byte, 1000)
				for j := range payload {
					payload[j] = 0x01
				}
				e.push(at.Add(e.jitter(2)), caller, sfu, payload)
			}
		}
	}

	tick := 0
	ptIdx := 0
	for at := call.Start; at.Before(end); at = at.Add(interval) {
		for i := range streams {
			st := &streams[i]
			if at.Before(st.from) {
				continue
			}
			tick++
			src, dst := caller, sfu
			dir := byte(zoomDirToServer)
			if !st.out {
				src, dst = sfu, caller
				dir = zoomDirFromServer
			}
			if tick%71 == 0 {
				sr := rtcp.EncodeSR(&rtcp.SenderReport{
					SSRC: st.ms.ssrc,
					Info: rtcp.SenderInfo{NTPTimestamp: ntpTime(at), RTPTimestamp: st.ms.ts, PacketCount: uint32(tick), OctetCount: uint32(tick) * 500},
				})
				sdes := rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: st.ms.ssrc, Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "zoom-client"}}}}})
				// The jitter is drawn before the header's random
				// fields; the rng order fixes the capture's bytes.
				ts := at.Add(e.jitter(3))
				compound := rtcp.Compound(sr, sdes)
				payload := appendZoomHeader(e, make([]byte, 0, zoomHeaderMax+len(compound)), dir, zoomTypeRTCP, st.mediaID, false)
				e.push(ts, src, dst, append(payload, compound...))
				continue
			}
			pt := zoomRTPPayloadTypes[ptIdx%len(zoomRTPPayloadTypes)]
			ptIdx++
			st.ms.pt = pt
			size := 120
			mType := byte(zoomTypeAudio)
			if st.video {
				size = 600 + e.rng.IntN(300)
				mType = zoomTypeVideo
			}
			ts := at.Add(e.jitter(3))
			payload := appendZoomHeader(e, make([]byte, 0, zoomHeaderMax+rtp.HeaderLen+size), dir, mType, st.mediaID, false)
			e.push(ts, src, dst, st.ms.appendNext(payload, size, nil, false))
		}
	}
}

func generateMeetGroup(e *env, cfg GroupCallConfig) {
	call := e.cfg
	caller := netip.AddrPortFrom(e.callerLocal, 50040)
	server := netip.AddrPortFrom(e.serverAddr, 3478)
	rate := call.rate()
	interval := time.Second / time.Duration(rate)
	end := call.Start.Add(call.Duration)

	// TURN lifecycle as in 1-on-1 (binds channel 0x4000).
	bind := &stun.Message{Type: stun.TypeChannelBindRequest, TransactionID: e.rng.TxID()}
	bind.Add(stun.AttrChannelNumber, stun.EncodeChannelNumber(0x4000))
	bind.Add(stun.AttrXORPeerAddress, stun.EncodeXORAddress(netip.AddrPortFrom(e.serverAddr, 49152), bind.TransactionID))
	e.push(call.Start.Add(30*time.Millisecond), caller, server, bind.Encode())
	bindOK := &stun.Message{Type: stun.TypeChannelBindSuccess, TransactionID: bind.TransactionID}
	e.push(call.Start.Add(50*time.Millisecond), server, caller, bindOK.Encode())

	type gstream struct {
		ms    *mediaStream
		out   bool
		video bool
		from  time.Time
	}
	var streams []gstream
	for p := 0; p < cfg.Participants; p++ {
		join := groupJoinTime(cfg, p)
		streams = append(streams,
			gstream{newMediaStream(e.rng, e.rng.Uint32(), 111, 960), p == 0, false, join},
			gstream{newMediaStream(e.rng, e.rng.Uint32(), 96, 3000), p == 0, true, join},
		)
		// Joins refresh permissions toward the new member's relayed
		// address.
		if p >= 1 {
			perm := &stun.Message{Type: stun.TypeCreatePermissionReq, TransactionID: e.rng.TxID()}
			perm.Add(stun.AttrXORPeerAddress, stun.EncodeXORAddress(netip.AddrPortFrom(e.serverAddr, uint16(49152+p)), perm.TransactionID))
			e.push(join, caller, server, perm.Encode())
			permOK := &stun.Message{Type: stun.TypeCreatePermissionOK, TransactionID: perm.TransactionID}
			e.push(join.Add(15*time.Millisecond), server, caller, permOK.Encode())
		}
	}

	tick := 0
	ptIdx := 0
	for at := call.Start.Add(200 * time.Millisecond); at.Before(end); at = at.Add(interval) {
		for i := range streams {
			st := &streams[i]
			if at.Before(st.from) {
				continue
			}
			tick++
			src, dst := caller, server
			if !st.out {
				src, dst = server, caller
			}
			st.ms.pt = meetRTPPayloads[ptIdx%len(meetRTPPayloads)]
			ptIdx++
			size := 95
			if st.video {
				size = 500 + e.rng.IntN(400)
			}
			payload := stun.AppendChannelDataHeader(make([]byte, 0, 4+rtp.HeaderLen+size), 0x4000, rtp.HeaderLen+size)
			e.push(at.Add(e.jitter(3)), src, dst, st.ms.appendNext(payload, size, nil, false))
		}
	}
}
