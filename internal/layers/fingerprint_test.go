package layers_test

import (
	"net/netip"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// The flow-fingerprint contract (fingerprint.go): wherever both the
// fixed-offset fast path and the decoded slow path produce a
// fingerprint, they produce the same one; and the fingerprint is
// direction-invariant, so both halves of a conversation route to the
// same ingest shard. This file is the differential suite for both
// properties — over every synthesized app corpus, not just
// hand-picked frames.

// fingerprintBoth computes both paths for one frame; agree is false
// only when both produced a value and the values differ.
func fingerprintBoth(t *testing.T, lt pcap.LinkType, frame []byte) (fastOK, slowOK bool) {
	t.Helper()
	fast, fastOK := layers.FlowFingerprint(lt, frame)
	var pkt layers.Packet
	if err := layers.DecodeInto(&pkt, lt, frame); err != nil {
		return fastOK, false
	}
	slow, slowOK := layers.FingerprintPacket(&pkt)
	if fastOK && slowOK && fast != slow {
		t.Errorf("fast %#x != decoded %#x for %d-byte frame", fast, slow, len(frame))
	}
	if fastOK && !slowOK {
		t.Errorf("fast path fingerprinted a frame the decoder rejects (%d bytes)", len(frame))
	}
	return fastOK, slowOK
}

// TestFingerprintDifferentialCorpus sweeps every app's synthetic
// capture — media, STUN/TURN, QUIC, TCP background, undecodable noise
// — and holds the two fingerprint paths to agreement on every frame.
// The fast path must also cover the overwhelming majority of routable
// frames: it exists so the router rarely pays a full decode.
func TestFingerprintDifferentialCorpus(t *testing.T) {
	start := time.Unix(1700000000, 0).UTC()
	for _, app := range appsim.Apps {
		capt, err := trace.Generate(trace.CaptureConfig{
			App: app, Network: appsim.WiFiRelay, Seed: 11,
			Start: start, CallDuration: 2 * time.Second, PrePost: 3 * time.Second,
			MediaRate: 8, Background: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		fastHits, slowHits := 0, 0
		for _, fr := range capt.Frames() {
			fastOK, slowOK := fingerprintBoth(t, pcap.LinkTypeRaw, fr.Data)
			if fastOK {
				fastHits++
			}
			if slowOK {
				slowHits++
			}
		}
		if slowHits == 0 {
			t.Fatalf("%s: corpus produced no routable frames", app)
		}
		if fastHits*10 < slowHits*9 {
			t.Errorf("%s: fast path covered %d of %d routable frames (<90%%)", app, fastHits, slowHits)
		}
	}
}

// TestFingerprintDirectionInvariance pins the property the sharded
// router depends on: swapping source and destination (addresses and
// ports together) never changes the fingerprint, over UDP and TCP,
// IPv4 and IPv6, and both link framings.
func TestFingerprintDirectionInvariance(t *testing.T) {
	payload := []byte("rtp-ish payload")
	frames := map[string][2][]byte{
		"udp4": {
			layers.AppendUDPv4(nil, addrA, addrB, 5004, 3478, payload),
			layers.AppendUDPv4(nil, addrB, addrA, 3478, 5004, payload),
		},
		"udp6": {
			layers.AppendUDPv6(nil, addr6, addr7, 443, 50000, payload),
			layers.AppendUDPv6(nil, addr7, addr6, 50000, 443, payload),
		},
		"tcp4": {
			layers.AppendTCPv4(nil, addrA, addrB, layers.TCP{SrcPort: 443, DstPort: 61000, DataOffset: 5}, payload),
			layers.AppendTCPv4(nil, addrB, addrA, layers.TCP{SrcPort: 61000, DstPort: 443, DataOffset: 5}, payload),
		},
	}
	for name, pair := range frames {
		a, aok := layers.FlowFingerprint(pcap.LinkTypeRaw, pair[0])
		b, bok := layers.FlowFingerprint(pcap.LinkTypeRaw, pair[1])
		if !aok || !bok {
			t.Fatalf("%s: fast path declined a fixed-header frame", name)
		}
		if a != b {
			t.Errorf("%s: direction changes fingerprint: %#x != %#x", name, a, b)
		}
	}
	// Distinct flows must not collide on these hand-built cases: a
	// port change is a different conversation.
	x, _ := layers.FlowFingerprint(pcap.LinkTypeRaw, layers.AppendUDPv4(nil, addrA, addrB, 5004, 3478, payload))
	y, _ := layers.FlowFingerprint(pcap.LinkTypeRaw, layers.AppendUDPv4(nil, addrA, addrB, 5005, 3478, payload))
	if x == y {
		t.Error("different ports produced the same fingerprint")
	}
}

// TestFingerprintDeclines pins the fall-back rule: anything the fast
// path is unsure about — truncation, IPv4 options, unsupported
// transports, empty input — declines rather than guesses.
func TestFingerprintDeclines(t *testing.T) {
	udp := layers.AppendUDPv4(nil, addrA, addrB, 1000, 2000, []byte("x"))
	cases := map[string][]byte{
		"empty":           nil,
		"one-byte":        {0x45},
		"truncated-ip":    udp[:19],
		"truncated-ports": udp[:22],
		"icmp-proto":      append(append([]byte{}, udp[:9]...), append([]byte{1}, udp[10:]...)...),
	}
	// IPv4 options: bump IHL to 6; the fast path must hand this to the
	// full decoder rather than read ports at the wrong offset.
	opts := append([]byte{}, udp...)
	opts[0] = 0x46
	cases["ipv4-options"] = opts
	for name, frame := range cases {
		if fp, ok := layers.FlowFingerprint(pcap.LinkTypeRaw, frame); ok {
			t.Errorf("%s: fast path fingerprinted (%#x) instead of declining", name, fp)
		}
	}
	if _, ok := layers.FlowFingerprint(pcap.LinkTypeEthernet, udp); ok {
		t.Error("raw-IP bytes fingerprinted under an Ethernet link type")
	}
}

// TestFingerprintEthernetFraming checks the Ethernet offsets against
// the raw framing of the same inner packet.
func TestFingerprintEthernetFraming(t *testing.T) {
	inner := layers.AppendUDPv4(nil, addrA, addrB, 5004, 3478, []byte("media"))
	eth := make([]byte, 14+len(inner))
	eth[12], eth[13] = 0x08, 0x00 // EtherType IPv4
	copy(eth[14:], inner)
	fe, okE := layers.FlowFingerprint(pcap.LinkTypeEthernet, eth)
	fr, okR := layers.FlowFingerprint(pcap.LinkTypeRaw, inner)
	if !okE || !okR {
		t.Fatal("fast path declined a fixed-header frame")
	}
	if fe != fr {
		t.Errorf("Ethernet framing changed the fingerprint: %#x != %#x", fe, fr)
	}
}

var (
	addrA = netip.MustParseAddr("192.168.1.10")
	addrB = netip.MustParseAddr("203.0.113.7")
	addr6 = netip.MustParseAddr("2001:db8::1")
	addr7 = netip.MustParseAddr("fe80::2")
)
