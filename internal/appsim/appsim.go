// Package appsim synthesizes protocol-accurate RTC traffic for the six
// applications the paper studies: Zoom, FaceTime, WhatsApp, Messenger,
// Discord, and Google Meet.
//
// The paper measures real applications on real phones; this package is
// the substitution substrate (see DESIGN.md): each emulator produces the
// application's wire behaviour — the standard protocol exchanges it
// shares with WebRTC, plus every documented deviation from §5.2/§5.3 of
// the paper, byte-for-byte as described: proprietary headers, undefined
// message and attribute types, filler bursts, fixed SSRC sets, trailer
// bytes, missing SRTCP auth tags, and so on. The analysis pipeline never
// sees generator internals; it must rediscover each behaviour from the
// bytes, exactly as the paper's DPI did.
//
// All randomness is drawn from the per-call seed, so a given CallConfig
// always produces the same capture.
package appsim

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/natsim"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/srtp"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// App identifies one of the six studied applications.
type App string

// The studied applications.
const (
	Zoom       App = "Zoom"
	FaceTime   App = "FaceTime"
	WhatsApp   App = "WhatsApp"
	Messenger  App = "Messenger"
	Discord    App = "Discord"
	GoogleMeet App = "Google Meet"
)

// Apps lists all applications in the paper's table order.
var Apps = []App{Zoom, FaceTime, WhatsApp, Messenger, Discord, GoogleMeet}

// Network is one of the three experiment configurations (§3.1.1).
type Network int

// Experiment network configurations.
const (
	// WiFiP2P is Wi-Fi with UDP hole punching permitted.
	WiFiP2P Network = iota
	// WiFiRelay is Wi-Fi with hole punching blocked at the router.
	WiFiRelay
	// Cellular leaves the transmission mode to the application.
	Cellular
)

func (n Network) String() string {
	switch n {
	case WiFiP2P:
		return "Wi-Fi P2P"
	case WiFiRelay:
		return "Wi-Fi relay"
	case Cellular:
		return "cellular"
	}
	return fmt.Sprintf("Network(%d)", int(n))
}

// Networks lists the three configurations.
var Networks = []Network{WiFiP2P, WiFiRelay, Cellular}

// Mode is the transmission mode a call ended up using.
type Mode int

// Transmission modes.
const (
	ModeP2P Mode = iota
	ModeRelay
	// ModeRelayThenP2P starts relayed and switches to P2P after ~30 s
	// (WhatsApp, Messenger, Google Meet on cellular).
	ModeRelayThenP2P
)

func (m Mode) String() string {
	switch m {
	case ModeP2P:
		return "P2P"
	case ModeRelay:
		return "relay"
	case ModeRelayThenP2P:
		return "relay→P2P"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// CallConfig parameterizes one synthetic 1-on-1 call.
type CallConfig struct {
	App     App
	Network Network
	// Seed drives all randomness for the call.
	Seed uint64
	// Start is the call-initiation time.
	Start time.Time
	// Duration is the call length (the paper used 5 minutes; tests use
	// seconds).
	Duration time.Duration
	// MediaRate is the RTP packet rate per media stream in packets per
	// second; 0 selects the default of 25.
	MediaRate int
	// DTLS emits a DTLS-SRTP key-establishment handshake (RFC 5764)
	// on the primary media 5-tuple before the media starts. Off by
	// default: the six studied apps were not observed doing
	// standards-form DTLS-SRTP, so the knob models a hypothetical
	// standards-compliant application.
	DTLS bool
	// Burst switches video senders from smooth pacing to frame-granular
	// bursting: each video frame's packets leave back-to-back at the
	// frame boundary (a few hundred microseconds apart) instead of being
	// spread across the frame interval, and per-frame sizes vary with
	// the encoder's bit-rate swings. Off by default so existing golden
	// captures are unchanged.
	Burst bool
	// BitrateVar is the encoder bit-rate variance as a fraction of the
	// nominal packet size when Burst is set: each frame scales its
	// packets by a factor drawn from [1-BitrateVar, 1+BitrateVar], with
	// a periodic keyframe boost on top. 0 selects the default of 0.25.
	BitrateVar float64
	// FrameRate is the video frame rate in frames per second when Burst
	// is set; 0 selects the default of 30.
	FrameRate int
}

func (c CallConfig) rate() int {
	if c.MediaRate <= 0 {
		return 25
	}
	return c.MediaRate
}

// Dgram is one packet as observed on the caller device's interface.
// The underlying type lives in internal/natsim so the network-
// impairment stage can transform traffic without importing this
// package (appsim already imports natsim for NAT behaviour).
type Dgram = natsim.Datagram

// Call is one generated call capture.
type Call struct {
	Config CallConfig
	Mode   Mode
	// Events are the datagrams in timestamp order.
	Events []Dgram
	// CallStart and CallEnd delimit the call window (between the
	// pre-call and post-call phases).
	CallStart, CallEnd time.Time
}

// env is the simulated network environment for one call.
type env struct {
	cfg CallConfig
	rng *ice.Rand
	// burst models frame-granular video emission; nil when Burst is off.
	burst *burster

	callerLocal netip.Addr // caller device address
	calleeAddr  netip.Addr // callee as seen by the caller (LAN or public)
	serverAddr  netip.Addr // the app's relay/SFU server
	stunAddr    netip.Addr // the app's STUN server

	relay *natsim.Relay
	mode  Mode

	events []Dgram
}

// Per-app public infrastructure addresses (documentation ranges).
var appServers = map[App]struct{ relay, stun string }{
	Zoom:       {"203.0.113.10", "203.0.113.11"},
	FaceTime:   {"203.0.113.20", "203.0.113.21"},
	WhatsApp:   {"203.0.113.30", "203.0.113.31"},
	Messenger:  {"203.0.113.40", "203.0.113.41"},
	Discord:    {"203.0.113.50", "203.0.113.51"},
	GoogleMeet: {"203.0.113.60", "203.0.113.61"},
}

// newEnv builds the environment and decides the transmission mode the
// way the paper observed it (§3.1.1): Wi-Fi mode follows the router's
// hole-punching policy via the NAT simulation; cellular is
// application-determined.
func newEnv(cfg CallConfig) *env {
	e := &env{cfg: cfg, rng: ice.NewRand(cfg.Seed)}
	if cfg.Burst {
		e.burst = newBurster(cfg)
	}
	srv := appServers[cfg.App]
	e.serverAddr = netip.MustParseAddr(srv.relay)
	e.stunAddr = netip.MustParseAddr(srv.stun)
	e.relay = natsim.NewRelay(e.serverAddr)

	switch cfg.Network {
	case WiFiP2P, WiFiRelay:
		// Both phones share the paper's OpenWRT router LAN.
		e.callerLocal = netip.MustParseAddr("192.168.1.10")
		e.calleeAddr = netip.MustParseAddr("192.168.1.20")
		routerNAT := natsim.NewNAT(netip.MustParseAddr("198.51.100.1"), natsim.EndpointIndependent, natsim.AddressDependent)
		routerNAT.BlockInboundUDP = cfg.Network == WiFiRelay
		a := &natsim.Client{Internal: netip.AddrPortFrom(e.callerLocal, 50000), NAT: routerNAT}
		b := &natsim.Client{Internal: netip.AddrPortFrom(e.calleeAddr, 50002), NAT: routerNAT}
		// Same-LAN peers first try host candidates; the router firewall
		// policy stands in for whether the direct path is usable, as in
		// the paper's setup.
		if natsim.HolePunch(a, b, netip.AddrPortFrom(e.stunAddr, 3478)) && cfg.Network == WiFiP2P {
			e.mode = ModeP2P
		} else {
			e.mode = ModeRelay
		}
	case Cellular:
		// Distinct carrier networks; the app decides (§3.1.1).
		e.callerLocal = netip.MustParseAddr("10.21.5.8")
		e.calleeAddr = netip.MustParseAddr("198.51.100.77") // peer's CGNAT mapping
		switch cfg.App {
		case Zoom, Discord:
			e.mode = ModeRelay
		case FaceTime:
			e.mode = ModeP2P
		default: // WhatsApp, Messenger, Google Meet
			e.mode = ModeRelayThenP2P
		}
	}
	// Apps that never do P2P override the Wi-Fi result.
	if cfg.App == Discord {
		e.mode = ModeRelay
	}
	return e
}

// peer returns the address media flows to in the given mode phase.
func (e *env) peer(relayPhase bool) netip.Addr {
	if relayPhase {
		return e.serverAddr
	}
	return e.calleeAddr
}

// push records a datagram.
func (e *env) push(at time.Time, src, dst netip.AddrPort, payload []byte) {
	e.events = append(e.events, Dgram{At: at, Src: src, Dst: dst, Proto: layers.IPProtocolUDP, Payload: payload})
}

// jitterMS returns a small deterministic jitter in [0, ms) milliseconds.
func (e *env) jitter(ms int) time.Duration {
	if ms <= 0 {
		return 0
	}
	return time.Duration(e.rng.IntN(ms*1000)) * time.Microsecond
}

// finish sorts events and assembles the Call.
func (e *env) finish() *Call {
	natsim.SortByTime(e.events)
	return &Call{
		Config:    e.cfg,
		Mode:      e.mode,
		Events:    e.events,
		CallStart: e.cfg.Start,
		CallEnd:   e.cfg.Start.Add(e.cfg.Duration),
	}
}

// mediaStream produces an application's RTP packets for one SSRC with
// SRTP-encrypted payloads and correct sequence/timestamp progression.
type mediaStream struct {
	ssrc    uint32
	pt      uint8
	seq     uint16
	ts      uint32
	tsStep  uint32
	srtpCtx *srtp.Context
	index   uint64
}

func newMediaStream(rng *ice.Rand, ssrc uint32, pt uint8, tsStep uint32) *mediaStream {
	ctx, err := srtp.NewContext(rng.Bytes(srtp.MasterKeyLen), rng.Bytes(srtp.MasterSaltLen))
	if err != nil {
		panic("appsim: srtp context: " + err.Error())
	}
	return &mediaStream{
		ssrc:    ssrc,
		pt:      pt,
		seq:     uint16(rng.Uint32()),
		ts:      rng.Uint32(),
		tsStep:  tsStep,
		srtpCtx: ctx,
	}
}

// appendNext appends the stream's next RTP packet to dst: the header
// with the given optional extension (marker set on request), then an
// encrypted payload of n bytes, encrypted in place.
func (m *mediaStream) appendNext(dst []byte, n int, ext *rtp.Extension, marker bool) []byte {
	p := rtp.Packet{
		Marker:         marker,
		PayloadType:    m.pt,
		SequenceNumber: m.seq,
		Timestamp:      m.ts,
		SSRC:           m.ssrc,
		Extension:      ext,
	}
	dst = p.AppendHeader(dst)
	start := len(dst)
	dst = append(dst, make([]byte, n)...)
	m.srtpCtx.EncryptRTPPayload(dst[start:], m.ssrc, m.index)
	m.index++
	m.seq++
	m.ts += m.tsStep
	return dst
}

// ntpTime converts a wall-clock time to a 64-bit NTP timestamp.
func ntpTime(t time.Time) uint64 {
	const ntpEpochOffset = 2208988800 // seconds between 1900 and 1970
	secs := uint64(t.Unix()) + ntpEpochOffset
	frac := uint64(t.Nanosecond()) * (1 << 32) / 1e9
	return secs<<32 | frac
}

// Generate produces one synthetic call capture for the configuration.
func Generate(cfg CallConfig) (*Call, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("appsim: duration must be positive")
	}
	if cfg.Start.IsZero() {
		return nil, fmt.Errorf("appsim: start time must be set")
	}
	if _, known := appServers[cfg.App]; !known {
		return nil, fmt.Errorf("appsim: unknown app %q", cfg.App)
	}
	e := newEnv(cfg)
	switch cfg.App {
	case Zoom:
		generateZoom(e)
	case FaceTime:
		generateFaceTime(e)
	case WhatsApp:
		generateWhatsApp(e)
	case Messenger:
		generateMessenger(e)
	case Discord:
		generateDiscord(e)
	case GoogleMeet:
		generateMeet(e)
	default:
		return nil, fmt.Errorf("appsim: unknown app %q", cfg.App)
	}
	if cfg.DTLS {
		e.generateDTLSHandshake()
	}
	e.generateSignaling()
	return e.finish(), nil
}

// signalingDomains carries each app's RTC signaling SNI; these are
// call-related TCP flows that the filter pipeline must keep (they form
// the paper's "RTC Traffic TCP" column in Table 1).
var signalingDomains = map[App]string{
	Zoom:       "rtc.zoom.example",
	FaceTime:   "facetime.apple.example",
	WhatsApp:   "sig.whatsapp.example",
	Messenger:  "rtc.messenger.example",
	Discord:    "gateway.discord.example",
	GoogleMeet: "meet.google.example",
}

// generateSignaling emits a short TLS-over-TCP signaling and heartbeat
// flow scoped exactly to the call window.
func (e *env) generateSignaling() {
	cfg := e.cfg
	src := netip.AddrPortFrom(e.callerLocal, 50100)
	dst := netip.AddrPortFrom(e.serverAddr, 443)
	var random [32]byte
	copy(random[:], e.rng.Bytes(32))
	hello := tlsinspect.BuildClientHello(signalingDomains[cfg.App], random)
	at := cfg.Start.Add(10 * time.Millisecond)
	pushSeg := func(ts time.Time, fromCaller bool, flags uint8, payload []byte) {
		s, d := src, dst
		if !fromCaller {
			s, d = dst, src
		}
		e.events = append(e.events, Dgram{At: ts, Src: s, Dst: d, Proto: layers.IPProtocolTCP, Payload: payload, TCPFlags: flags})
	}
	pushSeg(at, true, layers.TCPSyn, nil)
	pushSeg(at.Add(12*time.Millisecond), false, layers.TCPSyn|layers.TCPAck, nil)
	pushSeg(at.Add(20*time.Millisecond), true, layers.TCPPsh|layers.TCPAck, hello)
	pushSeg(at.Add(45*time.Millisecond), false, layers.TCPPsh|layers.TCPAck, e.rng.Bytes(180))
	// Heartbeats through the call.
	hb := int(cfg.Duration / (2 * time.Second))
	if hb < 2 {
		hb = 2
	}
	for i := 0; i < hb; i++ {
		ts := cfg.Start.Add(time.Duration(i+1) * cfg.Duration / time.Duration(hb+1))
		pushSeg(ts, true, layers.TCPPsh|layers.TCPAck, e.rng.Bytes(24))
		pushSeg(ts.Add(20*time.Millisecond), false, layers.TCPAck, nil)
	}
	pushSeg(cfg.Start.Add(cfg.Duration).Add(-30*time.Millisecond), true, layers.TCPFin|layers.TCPAck, nil)
}
