// Package trace assembles complete experiment captures: the synthetic
// RTC call from internal/appsim, the background noise that the filter
// pipeline must remove, and the three annotated phases of §3.1.2
// (pre-call, call, post-call). Captures can be held in memory or
// exported as pcap files identical in structure to what the paper's
// Wireshark/RVI setup produced (raw-IP link type).
package trace

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/natsim"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// CaptureConfig parameterizes one experiment capture (one call).
type CaptureConfig struct {
	App     appsim.App
	Network appsim.Network
	Seed    uint64
	// Start is the call-initiation time.
	Start time.Time
	// CallDuration is the call length (paper: 5 minutes).
	CallDuration time.Duration
	// PrePost is the pre-call and post-call capture length (paper: 60
	// seconds each).
	PrePost time.Duration
	// MediaRate is forwarded to the app simulator.
	MediaRate int
	// DTLS makes the app simulator emit a DTLS-SRTP key-establishment
	// handshake before the media (see appsim.CallConfig.DTLS).
	DTLS bool
	// Background enables the unrelated-traffic generator.
	Background bool
	// BackgroundBulk, when Background is set, adds approximately this
	// many MTU-sized TCP segments of unrelated bulk downloads spread
	// over the capture — the traffic volume that dominates real capture
	// files. Zero keeps the light fixed-size background mix.
	BackgroundBulk int
	// Impair applies a network-impairment profile to the call's traffic
	// (not the background) between emission and capture, seeded by
	// Seed. The zero profile is a pass-through.
	Impair natsim.Profile
	// Burst, BitrateVar, and FrameRate are forwarded to the app
	// simulator's frame-granular video burster (appsim.CallConfig).
	Burst      bool
	BitrateVar float64
	FrameRate  int
}

// Capture is one assembled experiment capture.
type Capture struct {
	Config CaptureConfig
	// Mode is the transmission mode the call used.
	Mode appsim.Mode
	// Events are all packets (call + background) in time order.
	Events []appsim.Dgram
	// CallStart and CallEnd delimit the annotated call window.
	CallStart, CallEnd time.Time
	// RTCEvents counts the events that came from the RTC call (ground
	// truth for filter evaluation), after impairment.
	RTCEvents int
	// Impair is the impairment accounting when Config.Impair is active.
	Impair natsim.ImpairStats
}

// Generate builds one capture.
func Generate(cfg CaptureConfig) (*Capture, error) {
	if cfg.CallDuration <= 0 {
		return nil, fmt.Errorf("trace: call duration must be positive")
	}
	if cfg.PrePost < 0 {
		return nil, fmt.Errorf("trace: negative pre/post duration")
	}
	call, err := appsim.Generate(appsim.CallConfig{
		App:        cfg.App,
		Network:    cfg.Network,
		Seed:       cfg.Seed,
		Start:      cfg.Start,
		Duration:   cfg.CallDuration,
		MediaRate:  cfg.MediaRate,
		DTLS:       cfg.DTLS,
		Burst:      cfg.Burst,
		BitrateVar: cfg.BitrateVar,
		FrameRate:  cfg.FrameRate,
	})
	if err != nil {
		return nil, err
	}
	cap := &Capture{
		Config:    cfg,
		Mode:      call.Mode,
		CallStart: call.CallStart,
		CallEnd:   call.CallEnd,
	}
	events := call.Events
	if cfg.Impair.Active() {
		events, cap.Impair = cfg.Impair.ImpairWithStats(cfg.Seed, events)
	}
	cap.RTCEvents = len(events)
	cap.Events = events
	if cfg.Background {
		bg := appsim.GenerateBackground(appsim.BackgroundConfig{
			Seed:      cfg.Seed,
			PreStart:  cfg.Start.Add(-cfg.PrePost),
			CallStart: call.CallStart,
			CallEnd:   call.CallEnd,
			PostEnd:   call.CallEnd.Add(cfg.PrePost),
			Device:    deviceAddr(cfg.Network),
			LANPeer:   lanPeer(cfg.Network),
			Bulk:      cfg.BackgroundBulk,
		})
		cap.Events = append(cap.Events, bg...)
	}
	natsim.SortByTime(cap.Events)
	return cap, nil
}

func deviceAddr(n appsim.Network) (a addr) {
	if n == appsim.Cellular {
		return mustAddr("10.21.5.8")
	}
	return mustAddr("192.168.1.10")
}

func lanPeer(n appsim.Network) addr {
	if n == appsim.Cellular {
		return mustAddr("10.21.5.99")
	}
	return mustAddr("192.168.1.30")
}

// Frames encodes the capture's events as raw-IP frames with timestamps,
// maintaining simple per-stream TCP sequence numbers so segment payloads
// reassemble trivially. Every frame is a capacity-capped subslice of
// one buffer sized up front, so frames are disjoint and the capture's
// encoding allocates per capture, not per frame.
func (c *Capture) Frames() []pcap.Packet {
	size := 0
	for i := range c.Events {
		size += frameLen(&c.Events[i])
	}
	arena := make([]byte, 0, size)
	seqs := make(map[[2]netip.AddrPort]uint32)
	out := make([]pcap.Packet, 0, len(c.Events))
	for i := range c.Events {
		ev := &c.Events[i]
		start := len(arena)
		switch {
		case ev.Proto == layers.IPProtocolTCP:
			k := [2]netip.AddrPort{ev.Src, ev.Dst}
			seq := seqs[k]
			seqs[k] = seq + uint32(len(ev.Payload))
			arena = layers.AppendTCPv4(arena, ev.Src.Addr(), ev.Dst.Addr(), layers.TCP{
				SrcPort: ev.Src.Port(),
				DstPort: ev.Dst.Port(),
				Seq:     1000 + seq,
				Flags:   ev.TCPFlags,
				Window:  65535,
			}, ev.Payload)
		case ev.Src.Addr().Is6():
			arena = layers.AppendUDPv6(arena, ev.Src.Addr(), ev.Dst.Addr(), ev.Src.Port(), ev.Dst.Port(), ev.Payload)
		default:
			arena = layers.AppendUDPv4(arena, ev.Src.Addr(), ev.Dst.Addr(), ev.Src.Port(), ev.Dst.Port(), ev.Payload)
		}
		out = append(out, pcap.Packet{Timestamp: ev.At, Data: arena[start:len(arena):len(arena)]})
	}
	return out
}

// frameLen is the length of the frame Frames encodes for ev.
func frameLen(ev *appsim.Dgram) int {
	switch {
	case ev.Proto == layers.IPProtocolTCP:
		return layers.TCPv4Overhead + len(ev.Payload)
	case ev.Src.Addr().Is6():
		return layers.UDPv6Overhead + len(ev.Payload)
	}
	return layers.UDPv4Overhead + len(ev.Payload)
}

// Input is one fully-assembled analysis input: the encoded frames in
// time order plus the annotated call window. It is the type behind
// core.CaptureInput, defined here so every place that turns a Capture
// into pipeline input shares one constructor.
type Input struct {
	// Label names the application (or capture) in reports.
	Label string
	// LinkType describes the frames.
	LinkType pcap.LinkType
	// Packets are the captured frames in time order.
	Packets []pcap.Packet
	// CallStart and CallEnd delimit the annotated call window.
	CallStart, CallEnd time.Time
}

// Input encodes the capture's events as raw-IP frames and pairs them
// with the annotated call window, ready for analysis.
func (c *Capture) Input() Input {
	return Input{
		Label:     string(c.Config.App),
		LinkType:  pcap.LinkTypeRaw,
		Packets:   c.Frames(),
		CallStart: c.CallStart,
		CallEnd:   c.CallEnd,
	}
}

// WritePCAP writes the capture as a classic pcap file with the raw-IP
// link type (what Apple RVI captures use).
func (c *Capture) WritePCAP(w io.Writer) error {
	pw := pcap.NewWriter(w, pcap.LinkTypeRaw)
	for _, pkt := range c.Frames() {
		if err := pw.WritePacket(pkt); err != nil {
			return err
		}
	}
	return pw.WriteHeader() // ensure header exists even with no packets
}

// MatrixOptions parameterizes the full experiment matrix: every app ×
// every network configuration × Runs repetitions (§3.1.2: 6 × 3 × 6 = 90
// calls in the paper).
type MatrixOptions struct {
	Runs         int
	CallDuration time.Duration
	PrePost      time.Duration
	MediaRate    int
	Start        time.Time
	BaseSeed     uint64
	Background   bool
	// DTLS is forwarded to every capture config.
	DTLS bool
	// Apps optionally restricts the matrix; nil means all six.
	Apps []appsim.App
	// Impair, Burst, BitrateVar, and FrameRate are forwarded to every
	// capture config.
	Impair     natsim.Profile
	Burst      bool
	BitrateVar float64
	FrameRate  int
}

// Matrix expands the options into per-call capture configs. Successive
// calls are spaced so their capture windows do not overlap.
func Matrix(o MatrixOptions) []CaptureConfig {
	if o.Runs <= 0 {
		o.Runs = 1
	}
	apps := o.Apps
	if len(apps) == 0 {
		apps = appsim.Apps
	}
	start := o.Start
	spacing := o.CallDuration + 2*o.PrePost + 10*time.Second
	var out []CaptureConfig
	seed := o.BaseSeed
	for _, app := range apps {
		for _, network := range appsim.Networks {
			for run := 0; run < o.Runs; run++ {
				seed++
				out = append(out, CaptureConfig{
					App:          app,
					Network:      network,
					Seed:         seed,
					Start:        start,
					CallDuration: o.CallDuration,
					PrePost:      o.PrePost,
					MediaRate:    o.MediaRate,
					DTLS:         o.DTLS,
					Background:   o.Background,
					Impair:       o.Impair,
					Burst:        o.Burst,
					BitrateVar:   o.BitrateVar,
					FrameRate:    o.FrameRate,
				})
				start = start.Add(spacing)
			}
		}
	}
	return out
}

// addr is a local alias to keep signatures tidy.
type addr = netip.Addr

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
