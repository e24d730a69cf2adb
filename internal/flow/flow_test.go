package flow

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

var (
	hostA = netip.MustParseAddr("192.168.1.10")
	hostB = netip.MustParseAddr("203.0.113.7")
	hostC = netip.MustParseAddr("198.51.100.3")
	t0    = time.Unix(1700000000, 0).UTC()
)

func decode(t *testing.T, frame []byte) *layers.Packet {
	t.Helper()
	pkt, err := layers.Decode(pcap.LinkTypeRaw, frame)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func TestBidirectionalGrouping(t *testing.T) {
	tbl := NewTable()
	// A->B then B->A: one stream, two directions.
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 5000, 6000, []byte("req"))))
	tbl.Add(t0.Add(time.Second), decode(t, layers.EncodeUDPv4(hostB, hostA, 6000, 5000, []byte("resp"))))
	if tbl.Len() != 1 {
		t.Fatalf("streams = %d, want 1", tbl.Len())
	}
	s := tbl.Streams()[0]
	if len(s.Packets) != 2 {
		t.Fatalf("packets = %d", len(s.Packets))
	}
	if s.Packets[0].Dir == s.Packets[1].Dir {
		t.Error("directions should differ")
	}
	if s.Bytes != 7 {
		t.Errorf("bytes = %d", s.Bytes)
	}
	first, last := s.Span()
	if !first.Equal(t0) || !last.Equal(t0.Add(time.Second)) {
		t.Errorf("span = %v..%v", first, last)
	}
}

func TestDistinctStreams(t *testing.T) {
	tbl := NewTable()
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 5000, 6000, []byte("x"))))
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 5001, 6000, []byte("x")))) // different src port
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostC, 5000, 6000, []byte("x")))) // different dst addr
	seg := layers.TCP{SrcPort: 5000, DstPort: 6000, Flags: layers.TCPSyn}
	tbl.Add(t0, decode(t, layers.EncodeTCPv4(hostA, hostB, seg, nil))) // same tuple, TCP
	if tbl.Len() != 4 {
		t.Fatalf("streams = %d, want 4", tbl.Len())
	}
	if tbl.PacketCount() != 4 {
		t.Errorf("packets = %d", tbl.PacketCount())
	}
}

func TestTCPFlagsPreserved(t *testing.T) {
	tbl := NewTable()
	seg := layers.TCP{SrcPort: 1, DstPort: 2, Flags: layers.TCPSyn | layers.TCPAck}
	tbl.Add(t0, decode(t, layers.EncodeTCPv4(hostA, hostB, seg, nil)))
	p := tbl.Streams()[0].Packets[0]
	if p.TCPFlags != layers.TCPSyn|layers.TCPAck {
		t.Errorf("flags = %#x", p.TCPFlags)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	e1 := Endpoint{Addr: hostA, Port: 5000}
	e2 := Endpoint{Addr: hostB, Port: 6000}
	k1 := KeyFor(layers.IPProtocolUDP, e1, e2)
	k2 := KeyFor(layers.IPProtocolUDP, e2, e1)
	if k1 != k2 {
		t.Errorf("keys differ: %v vs %v", k1, k2)
	}
	// Same address, different ports.
	e3 := Endpoint{Addr: hostA, Port: 1}
	e4 := Endpoint{Addr: hostA, Port: 2}
	if KeyFor(layers.IPProtocolUDP, e3, e4) != KeyFor(layers.IPProtocolUDP, e4, e3) {
		t.Error("same-address keys differ")
	}
}

func TestThreeTupleIndex(t *testing.T) {
	tbl := NewTable()
	// Two different source ports to the same destination: one 3-tuple,
	// two streams. This is the APNS NAT-rebinding pattern.
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 5000, 443, []byte("x"))))
	tbl.Add(t0.Add(time.Minute), decode(t, layers.EncodeUDPv4(hostA, hostB, 5050, 443, []byte("x"))))
	if tbl.Len() != 2 {
		t.Fatalf("streams = %d", tbl.Len())
	}
	tt := ThreeTuple{Proto: layers.IPProtocolUDP, Addr: hostB, Port: 443}
	sp, ok := tbl.ThreeTupleSpan(tt)
	if !ok {
		t.Fatal("3-tuple not indexed")
	}
	if !sp.First.Equal(t0) || !sp.Last.Equal(t0.Add(time.Minute)) {
		t.Errorf("span = %+v", sp)
	}
	if _, ok := tbl.ThreeTupleSpan(ThreeTuple{Proto: layers.IPProtocolUDP, Addr: hostC, Port: 443}); ok {
		t.Error("unseen 3-tuple reported")
	}
}

func TestNonTransportIgnored(t *testing.T) {
	tbl := NewTable()
	pkt := &layers.Packet{} // no layers at all
	if tbl.Add(t0, pkt) {
		t.Error("packet without transport accepted")
	}
	if tbl.Len() != 0 {
		t.Error("stream created for non-transport packet")
	}
}

func TestSpanExtend(t *testing.T) {
	var s Span
	s.Extend(t0.Add(time.Second))
	s.Extend(t0)
	s.Extend(t0.Add(2 * time.Second))
	if !s.First.Equal(t0) || !s.Last.Equal(t0.Add(2*time.Second)) {
		t.Errorf("span = %+v", s)
	}
}

func TestCount(t *testing.T) {
	tbl := NewTable()
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 1, 2, []byte("abc"))))
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 1, 2, []byte("de"))))
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostC, 1, 2, []byte("f"))))
	c := Count(tbl.Streams())
	if c.Streams != 2 || c.Packets != 3 || c.Bytes != 6 {
		t.Errorf("counts = %+v", c)
	}
}

func TestStreamsInsertionOrder(t *testing.T) {
	tbl := NewTable()
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 1, 2, nil)))
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostC, 3, 4, nil)))
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 1, 2, nil)))
	ss := tbl.Streams()
	if len(ss) != 2 {
		t.Fatalf("streams = %d", len(ss))
	}
	if ss[0].Key.A.Port != 1 && ss[0].Key.B.Port != 1 {
		t.Error("insertion order not preserved")
	}
}

// Property: packets from both directions of any endpoint pair always
// land in the same stream, and total packet count is preserved.
func TestQuickGroupingInvariants(t *testing.T) {
	f := func(ports []uint16, flip []bool) bool {
		tbl := NewTable()
		n := len(ports)
		if len(flip) < n {
			n = len(flip)
		}
		for i := 0; i < n; i++ {
			p := ports[i]%100 + 1
			src, dst := hostA, hostB
			sp, dp := p, uint16(9000)
			if flip[i] {
				src, dst = dst, src
				sp, dp = dp, sp
			}
			frame := layers.EncodeUDPv4(src, dst, sp, dp, []byte{1})
			pkt, err := layers.Decode(pcap.LinkTypeRaw, frame)
			if err != nil {
				return false
			}
			tbl.Add(time.Unix(int64(i), 0), pkt)
		}
		if tbl.PacketCount() != n {
			return false
		}
		// Distinct ports used determines stream count.
		seen := map[uint16]bool{}
		for i := 0; i < n; i++ {
			seen[ports[i]%100+1] = true
		}
		return tbl.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGetByKey(t *testing.T) {
	tbl := NewTable()
	tbl.Add(t0, decode(t, layers.EncodeUDPv4(hostA, hostB, 1, 2, []byte("x"))))
	key := KeyFor(layers.IPProtocolUDP, Endpoint{Addr: hostA, Port: 1}, Endpoint{Addr: hostB, Port: 2})
	if s := tbl.Get(key); s == nil || len(s.Packets) != 1 {
		t.Errorf("Get = %v", s)
	}
	missing := KeyFor(layers.IPProtocolUDP, Endpoint{Addr: hostA, Port: 9}, Endpoint{Addr: hostB, Port: 9})
	if s := tbl.Get(missing); s != nil {
		t.Error("Get returned a stream for a missing key")
	}
}

func TestEndpointAndKeyStrings(t *testing.T) {
	e := Endpoint{Addr: hostA, Port: 5000}
	if e.String() != "192.168.1.10:5000" {
		t.Errorf("endpoint = %s", e)
	}
	k := KeyFor(layers.IPProtocolUDP, e, Endpoint{Addr: hostB, Port: 6000})
	if k.String() == "" {
		t.Error("empty key string")
	}
	tt := ThreeTuple{Proto: layers.IPProtocolUDP, Addr: hostB, Port: 53}
	if tt.String() != "UDP -> 203.0.113.7:53" {
		t.Errorf("3-tuple = %s", tt)
	}
}
