package appsim

import (
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// Background noise reproduces the unrelated traffic classes the paper's
// two-stage filter removes (§3.2): OS push-notification keepalives with
// NAT-rebound source ports, TLS flows to known non-RTC domains, local
// network management chatter, well-known-port services, and long-lived
// update streams. Each class is crafted to be caught by a specific
// filter stage, and one class (short-lived in-window TLS with a
// blocklisted SNI) deliberately evades stage 1 to exercise stage 2.

// NonRTCDomains is the SNI blocklist derived from the paper's 7.5 hours
// of idle-phone traffic (§3.2.2, examples given in the paper).
var NonRTCDomains = []string{
	"oauth2.googleapis.com",
	"web.facebook.com",
	"api.apple-cloudkit.com",
	"mesu.apple.com",
	"adservice.example-tracker.com",
	"itunes.apple.com",
}

// BackgroundConfig parameterizes the noise generator.
type BackgroundConfig struct {
	Seed uint64
	// PreStart..PostEnd is the full capture window; CallStart..CallEnd
	// is the annotated call window inside it.
	PreStart, CallStart, CallEnd, PostEnd time.Time
	// Device is the phone's address; LANPeer is another device on the
	// same network generating discovery chatter.
	Device  netip.Addr
	LANPeer netip.Addr
	// Bulk approximates how many MTU-sized TCP download segments of
	// unrelated bulk transfer (OS updates, cloud sync) to spread across
	// the capture. Zero disables the component. Bulk flows span both
	// call boundaries, so the timespan filter removes them.
	Bulk int
}

// pushTCP appends a TCP segment event.
func pushTCP(events *[]Dgram, at time.Time, src, dst netip.AddrPort, flags uint8, payload []byte) {
	*events = append(*events, Dgram{At: at, Src: src, Dst: dst, Proto: layers.IPProtocolTCP, Payload: payload, TCPFlags: flags})
}

func pushUDP(events *[]Dgram, at time.Time, src, dst netip.AddrPort, payload []byte) {
	*events = append(*events, Dgram{At: at, Src: src, Dst: dst, Proto: layers.IPProtocolUDP, Payload: payload})
}

// GenerateBackground produces the unrelated-traffic events for one
// experiment capture.
func GenerateBackground(cfg BackgroundConfig) []Dgram {
	rng := ice.NewRand(cfg.Seed ^ 0xbadc0ffee)
	var events []Dgram

	dns := netip.AddrPortFrom(netip.MustParseAddr("192.168.1.1"), 53)
	apns := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.100"), 5223)
	updateSrv := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.101"), 443)
	ssdp := netip.AddrPortFrom(netip.MustParseAddr("239.255.255.250"), 1900)

	total := cfg.PostEnd.Sub(cfg.PreStart)

	// 1. DNS queries scattered across the whole capture (port filter;
	// the in-window ones are what stage 2 must catch).
	for i := 0; i < 12; i++ {
		at := cfg.PreStart.Add(time.Duration(i) * total / 12)
		q := rng.AppendBytes(append(make([]byte, 0, 24), byte(i), 0x01, 0x01, 0x00, 0x00, 0x01), 18)
		src := netip.AddrPortFrom(cfg.Device, uint16(52000+i))
		pushUDP(&events, at, src, dns, q)
		pushUDP(&events, at.Add(18*time.Millisecond), dns, src, rng.AppendBytes(append(make([]byte, 0, 40), q...), 16))
	}

	// 2. APNS-style persistent connection: fixed destination 3-tuple,
	// but the source port rebinds mid-call, splitting it into multiple
	// streams. The pre/post streams are caught by stage 1; the
	// call-window stream survives stage 1 and is removed by the 3-tuple
	// timing filter.
	srcPorts := []uint16{49800, 49801, 49802}
	margin := cfg.CallEnd.Sub(cfg.CallStart) / 4
	if margin > 5*time.Second {
		margin = 5 * time.Second
	}
	phases := []struct{ from, to time.Time }{
		{cfg.PreStart, cfg.CallStart.Add(-2 * time.Second)},
		{cfg.CallStart.Add(margin), cfg.CallEnd.Add(-margin)},
		{cfg.CallEnd.Add(2 * time.Second), cfg.PostEnd},
	}
	for pi, ph := range phases {
		if !ph.to.After(ph.from) {
			continue
		}
		src := netip.AddrPortFrom(cfg.Device, srcPorts[pi])
		n := 4
		for i := 0; i < n; i++ {
			at := ph.from.Add(time.Duration(i) * ph.to.Sub(ph.from) / time.Duration(n))
			pushTCP(&events, at, src, apns, layers.TCPPsh|layers.TCPAck, rng.Bytes(40))
			pushTCP(&events, at.Add(30*time.Millisecond), apns, src, layers.TCPAck, nil)
		}
	}

	// 3. Short-lived TLS flows inside the call window with blocklisted
	// SNIs (evade stage 1; removed by the SNI filter).
	for i, domain := range NonRTCDomains {
		if cfg.CallEnd.Sub(cfg.CallStart) < 4*time.Second {
			break
		}
		at := cfg.CallStart.Add(3*time.Second + time.Duration(i)*time.Second/2)
		src := netip.AddrPortFrom(cfg.Device, uint16(51000+i))
		dst := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.110"), 443)
		var random [32]byte
		copy(random[:], rng.Bytes(32))
		pushTCP(&events, at, src, dst, layers.TCPSyn, nil)
		pushTCP(&events, at.Add(10*time.Millisecond), dst, src, layers.TCPSyn|layers.TCPAck, nil)
		pushTCP(&events, at.Add(20*time.Millisecond), src, dst, layers.TCPPsh|layers.TCPAck, tlsinspect.BuildClientHello(domain, random))
		pushTCP(&events, at.Add(60*time.Millisecond), dst, src, layers.TCPPsh|layers.TCPAck, rng.Bytes(120))
		pushTCP(&events, at.Add(90*time.Millisecond), src, dst, layers.TCPFin|layers.TCPAck, nil)
	}

	// 4. Well-known-port services inside the call window (port filter):
	// SSDP and mDNS.
	if cfg.CallEnd.Sub(cfg.CallStart) >= 4*time.Second {
		mdns := netip.AddrPortFrom(netip.MustParseAddr("224.0.0.251"), 5353)
		for i := 0; i < 4; i++ {
			at := cfg.CallStart.Add(time.Duration(i+1) * cfg.CallEnd.Sub(cfg.CallStart) / 6)
			pushUDP(&events, at, netip.AddrPortFrom(cfg.Device, 1900), ssdp, []byte("M-SEARCH * HTTP/1.1\r\n"))
			pushUDP(&events, at.Add(100*time.Millisecond), netip.AddrPortFrom(cfg.LANPeer, 5353), mdns, rng.Bytes(60))
		}
	}

	// 5. LAN discovery between private devices, present in the pre-call
	// phase and inside the call window (local-IP filter: the pair also
	// appears pre-call, distinguishing it from legitimate P2P media).
	// The in-window chatter deliberately uses fresh ports so it forms a
	// new stream that evades both the timespan and 3-tuple filters and
	// must be caught by the local-IP rule (the address *pair* appears
	// pre-call even though the 5-tuple does not).
	pushUDP(&events, cfg.PreStart.Add(5*time.Second),
		netip.AddrPortFrom(cfg.LANPeer, 49500), netip.AddrPortFrom(cfg.Device, 49501), rng.Bytes(32))
	if cfg.CallEnd.Sub(cfg.CallStart) >= 4*time.Second {
		pushUDP(&events, cfg.CallStart.Add(2500*time.Millisecond),
			netip.AddrPortFrom(cfg.LANPeer, 49502), netip.AddrPortFrom(cfg.Device, 49503), rng.Bytes(32))
	}
	// IPv6 link-local chatter with the same pre-call signature.
	ll1 := netip.MustParseAddr("fe80::1")
	ll2 := netip.MustParseAddr("fe80::2")
	pushUDP(&events, cfg.PreStart.Add(8*time.Second),
		netip.AddrPortFrom(ll1, 49600), netip.AddrPortFrom(ll2, 49601), rng.Bytes(48))
	if cfg.CallEnd.Sub(cfg.CallStart) >= 4*time.Second {
		pushUDP(&events, cfg.CallStart.Add(3200*time.Millisecond),
			netip.AddrPortFrom(ll1, 49602), netip.AddrPortFrom(ll2, 49603), rng.Bytes(48))
	}

	// 6. A long-lived OS-update TCP stream spanning the entire capture
	// (stage 1: spans both call boundaries).
	upSrc := netip.AddrPortFrom(cfg.Device, 50900)
	n := 10
	for i := 0; i < n; i++ {
		at := cfg.PreStart.Add(time.Duration(i) * total / time.Duration(n))
		pushTCP(&events, at, upSrc, updateSrv, layers.TCPPsh|layers.TCPAck, rng.Bytes(800))
		pushTCP(&events, at.Add(25*time.Millisecond), updateSrv, upSrc, layers.TCPAck, rng.Bytes(400))
	}

	// 7. Bulk HTTPS downloads. In real captures, unrelated transfers
	// like these dominate the file's byte count; cfg.Bulk scales the
	// component so large-capture scenarios can be simulated. Each flow
	// spans the whole capture, so the timespan filter removes it.
	if cfg.Bulk > 0 {
		flows := cfg.Bulk/400 + 1
		if flows > 8 {
			flows = 8
		}
		per := cfg.Bulk / flows
		for f := 0; f < flows; f++ {
			src := netip.AddrPortFrom(cfg.Device, uint16(50910+f))
			dst := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.120"), uint16(443))
			pushTCP(&events, cfg.PreStart.Add(time.Duration(f)*time.Millisecond), src, dst, layers.TCPSyn, nil)
			for i := 0; i < per; i++ {
				at := cfg.PreStart.Add(time.Duration(f)*time.Millisecond +
					time.Duration(i)*total/time.Duration(per+1))
				pushTCP(&events, at, dst, src, layers.TCPPsh|layers.TCPAck, rng.Bytes(1200))
				if i%8 == 7 {
					pushTCP(&events, at.Add(4*time.Millisecond), src, dst, layers.TCPAck, nil)
				}
			}
		}
	}

	return events
}
