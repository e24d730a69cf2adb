package layers

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"

	"github.com/rtc-compliance/rtcc/internal/pcap"
)

var (
	addrA = netip.MustParseAddr("192.168.1.10")
	addrB = netip.MustParseAddr("203.0.113.7")
	addr6 = netip.MustParseAddr("2001:db8::1")
	addr7 = netip.MustParseAddr("fe80::2")
)

func TestUDPv4RoundTrip(t *testing.T) {
	payload := []byte("hello rtc")
	frame := AppendUDPv4(nil, addrA, addrB, 5004, 3478, payload)
	pkt, err := Decode(pcap.LinkTypeRaw, frame)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.IPv4 == nil || pkt.UDP == nil {
		t.Fatal("missing layers")
	}
	if pkt.Src() != addrA || pkt.Dst() != addrB {
		t.Errorf("addrs = %v -> %v", pkt.Src(), pkt.Dst())
	}
	proto, sp, dp := pkt.Transport()
	if proto != IPProtocolUDP || sp != 5004 || dp != 3478 {
		t.Errorf("transport = %v %d %d", proto, sp, dp)
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Errorf("payload = %q", pkt.Payload)
	}
	if pkt.IPv4.TTL != 64 || pkt.IPv4.Protocol != IPProtocolUDP {
		t.Errorf("ipv4 fields: ttl=%d proto=%v", pkt.IPv4.TTL, pkt.IPv4.Protocol)
	}
}

func TestUDPv4ChecksumValid(t *testing.T) {
	frame := AppendUDPv4(nil, addrA, addrB, 1234, 5678, []byte{1, 2, 3})
	// Verify IPv4 header checksum folds to zero.
	if got := foldChecksum(checksum16(0, frame[:20])); got != 0 {
		t.Errorf("ipv4 checksum verify = %#04x, want 0", got)
	}
	// Verify UDP checksum over pseudo-header + segment folds to zero.
	var pseudo [12]byte
	copy(pseudo[0:4], frame[12:16])
	copy(pseudo[4:8], frame[16:20])
	pseudo[9] = byte(IPProtocolUDP)
	pseudo[10] = frame[24]
	pseudo[11] = frame[25]
	if got := foldChecksum(checksum16(checksum16(0, pseudo[:]), frame[20:])); got != 0 {
		t.Errorf("udp checksum verify = %#04x, want 0", got)
	}
}

func TestTCPv4RoundTrip(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\n")
	seg := TCP{SrcPort: 49152, DstPort: 443, Seq: 1000, Ack: 2000, Flags: TCPPsh | TCPAck, Window: 65535}
	frame := AppendTCPv4(nil, addrA, addrB, seg, payload)
	pkt, err := Decode(pcap.LinkTypeRaw, frame)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.TCP == nil {
		t.Fatal("no TCP layer")
	}
	if pkt.TCP.SrcPort != 49152 || pkt.TCP.DstPort != 443 ||
		pkt.TCP.Seq != 1000 || pkt.TCP.Ack != 2000 ||
		pkt.TCP.Flags != TCPPsh|TCPAck || pkt.TCP.Window != 65535 {
		t.Errorf("tcp header mismatch: %+v", pkt.TCP)
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Errorf("payload = %q", pkt.Payload)
	}
}

func TestUDPv6RoundTrip(t *testing.T) {
	payload := []byte{0xde, 0xad}
	frame := AppendUDPv6(nil, addr6, addr7, 9000, 9001, payload)
	pkt, err := Decode(pcap.LinkTypeRaw, frame)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.IPv6 == nil || pkt.UDP == nil {
		t.Fatal("missing layers")
	}
	if pkt.Src() != addr6 || pkt.Dst() != addr7 {
		t.Errorf("addrs = %v -> %v", pkt.Src(), pkt.Dst())
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Errorf("payload = %v", pkt.Payload)
	}
	if pkt.IPv6.NextHeader != IPProtocolUDP || pkt.IPv6.HopLimit != 64 {
		t.Errorf("ipv6 fields: %+v", pkt.IPv6)
	}
}

func TestEthernetFrame(t *testing.T) {
	inner := AppendUDPv4(nil, addrA, addrB, 1, 2, []byte("x"))
	eth := make([]byte, 14+len(inner))
	copy(eth[0:6], []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff})
	copy(eth[6:12], []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66})
	eth[12], eth[13] = 0x08, 0x00
	copy(eth[14:], inner)

	pkt, err := Decode(pcap.LinkTypeEthernet, eth)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Ethernet == nil || pkt.Ethernet.EtherType != EtherTypeIPv4 {
		t.Fatal("no ethernet layer")
	}
	if pkt.Ethernet.SrcMAC != [6]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66} {
		t.Errorf("src mac = %x", pkt.Ethernet.SrcMAC)
	}
	if pkt.UDP == nil || !bytes.Equal(pkt.Payload, []byte("x")) {
		t.Error("inner decode failed")
	}
}

func TestDecodeTrailingPaddingTrimmed(t *testing.T) {
	frame := AppendUDPv4(nil, addrA, addrB, 1, 2, []byte("abc"))
	padded := append(append([]byte{}, frame...), 0, 0, 0, 0) // link-layer pad
	pkt, err := Decode(pcap.LinkTypeRaw, padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt.Payload, []byte("abc")) {
		t.Errorf("payload = %q, want abc (padding not trimmed)", pkt.Payload)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		lt   pcap.LinkType
		data []byte
		want error
	}{
		{"empty raw", pcap.LinkTypeRaw, nil, ErrTruncated},
		{"short ipv4", pcap.LinkTypeRaw, []byte{0x45, 0, 0}, ErrTruncated},
		{"bad version", pcap.LinkTypeRaw, []byte{0x95, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, ErrUnsupported},
		{"bad ihl", pcap.LinkTypeRaw, append([]byte{0x4f}, make([]byte, 19)...), ErrTruncated},
		{"short ethernet", pcap.LinkTypeEthernet, []byte{1, 2, 3}, ErrTruncated},
		{"unknown ethertype", pcap.LinkTypeEthernet, append(make([]byte, 12), 0x12, 0x34), ErrUnsupported},
		{"unknown linktype", pcap.LinkType(99), []byte{1}, ErrUnsupported},
		{"short ipv6", pcap.LinkTypeRaw, []byte{0x60, 0, 0, 0}, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.lt, tc.data); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeUnknownIPProto(t *testing.T) {
	frame := AppendUDPv4(nil, addrA, addrB, 1, 2, []byte("abc"))
	frame[9] = 47 // GRE
	// Recompute header checksum so only the protocol is "wrong".
	frame[10], frame[11] = 0, 0
	ck := foldChecksum(checksum16(0, frame[:20]))
	frame[10], frame[11] = byte(ck>>8), byte(ck)
	pkt, err := Decode(pcap.LinkTypeRaw, frame)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if pkt.IPv4 == nil {
		t.Error("IPv4 layer should still be decoded")
	}
}

func TestIPProtocolString(t *testing.T) {
	if IPProtocolUDP.String() != "UDP" || IPProtocolTCP.String() != "TCP" {
		t.Error("known proto strings wrong")
	}
	if IPProtocol(47).String() != "IPPROTO(47)" {
		t.Errorf("unknown proto string = %s", IPProtocol(47))
	}
}

// Property: AppendUDPv4 → Decode is the identity on (ports, payload) for
// arbitrary payloads.
func TestQuickUDPv4Identity(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		frame := AppendUDPv4(nil, addrA, addrB, sp, dp, payload)
		pkt, err := Decode(pcap.LinkTypeRaw, frame)
		if err != nil {
			return false
		}
		_, gsp, gdp := pkt.Transport()
		return gsp == sp && gdp == dp && bytes.Equal(pkt.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte, ltSel uint8) bool {
		lts := []pcap.LinkType{pcap.LinkTypeRaw, pcap.LinkTypeEthernet, pcap.LinkTypeNull}
		_, _ = Decode(lts[int(ltSel)%len(lts)], data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
