package filterpipe

import (
	"net/netip"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

var t0 = time.Unix(1700000000, 0).UTC()

// buildTable assembles a flow table from a trace capture.
func buildTable(t *testing.T, cap *trace.Capture) *flow.Table {
	t.Helper()
	table := flow.NewTable()
	for _, f := range cap.Frames() {
		pkt, err := layers.Decode(pcap.LinkTypeRaw, f.Data)
		if err != nil {
			t.Fatal(err)
		}
		table.Add(f.Timestamp, pkt)
	}
	return table
}

func generate(t *testing.T, app appsim.App, network appsim.Network) (*trace.Capture, *flow.Table, *Result) {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App:          app,
		Network:      network,
		Seed:         9,
		Start:        t0,
		CallDuration: 8 * time.Second,
		PrePost:      12 * time.Second,
		MediaRate:    15,
		Background:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := buildTable(t, cap)
	res := Run(table, Config{CallStart: cap.CallStart, CallEnd: cap.CallEnd})
	return cap, table, res
}

func TestPartitionPreserved(t *testing.T) {
	_, table, res := generate(t, appsim.WhatsApp, appsim.WiFiRelay)
	if len(res.RTC)+len(res.RemovedStreams) != table.Len() {
		t.Fatalf("kept %d + removed %d != total %d", len(res.RTC), len(res.RemovedStreams), table.Len())
	}
	kept := res.RTCUDP.Packets + res.RTCTCP.Packets
	removed := res.Stage1UDP.Packets + res.Stage1TCP.Packets + res.Stage2UDP.Packets + res.Stage2TCP.Packets
	if kept+removed != table.PacketCount() {
		t.Fatalf("packet accounting: %d + %d != %d", kept, removed, table.PacketCount())
	}
	if res.RawUDP.Streams+res.RawTCP.Streams != table.Len() {
		t.Fatal("raw stream accounting wrong")
	}
}

func TestEveryRuleFires(t *testing.T) {
	_, _, res := generate(t, appsim.GoogleMeet, appsim.WiFiP2P)
	rules := make(map[Rule]int)
	for _, rm := range res.Removed {
		rules[rm.Rule]++
	}
	for _, want := range []Rule{RuleTimespan, RuleThreeTuple, RuleSNI, RuleLocalIP, RulePort} {
		if rules[want] == 0 {
			t.Errorf("rule %q never fired: %v", want, rules)
		}
	}
}

func TestRTCTrafficSurvives(t *testing.T) {
	for _, app := range appsim.Apps {
		for _, network := range appsim.Networks {
			cap, _, res := generate(t, app, network)
			// Every surviving packet count must equal the RTC ground
			// truth: nothing from the call removed, nothing unrelated
			// kept.
			got := res.RTCUDP.Packets + res.RTCTCP.Packets
			if got != cap.RTCEvents {
				t.Errorf("%s/%s: RTC packets = %d, ground truth %d", app, network, got, cap.RTCEvents)
			}
		}
	}
}

func TestP2PMediaNotRemovedByLocalIPRule(t *testing.T) {
	// Wi-Fi P2P media flows between two private addresses; the local-IP
	// rule must keep it because the pair does not appear pre-call.
	_, _, res := generate(t, appsim.WhatsApp, appsim.WiFiP2P)
	foundP2P := false
	for _, s := range res.RTC {
		a, b := s.Key.A.Addr.String(), s.Key.B.Addr.String()
		if (a == "192.168.1.10" && b == "192.168.1.20") || (a == "192.168.1.20" && b == "192.168.1.10") {
			foundP2P = true
		}
	}
	if !foundP2P {
		t.Error("P2P media stream was filtered out")
	}
}

func TestSignalingTCPKept(t *testing.T) {
	_, _, res := generate(t, appsim.Discord, appsim.WiFiRelay)
	if res.RTCTCP.Streams == 0 {
		t.Error("RTC signaling TCP stream was removed")
	}
}

func TestAPNSRebindingCaughtByThreeTuple(t *testing.T) {
	_, _, res := generate(t, appsim.Zoom, appsim.WiFiRelay)
	found := false
	for key, rm := range res.Removed {
		if rm.Rule == RuleThreeTuple {
			// The APNS destination is 203.0.113.100:5223.
			if key.A.Port == 5223 || key.B.Port == 5223 {
				found = true
			}
		}
	}
	if !found {
		t.Error("in-window APNS stream not removed by the 3-tuple rule")
	}
}

func TestBlocklistedSNIRemoved(t *testing.T) {
	_, _, res := generate(t, appsim.Messenger, appsim.Cellular)
	count := 0
	for _, rm := range res.Removed {
		if rm.Rule == RuleSNI {
			count++
		}
	}
	if count == 0 {
		t.Error("no streams removed by SNI rule")
	}
}

func TestWindowSlackDefault(t *testing.T) {
	// Stage 1 expands the call window by DefaultWindowSlack on both
	// sides: a stream starting just inside the slack survives, one
	// starting just outside it is removed by the timespan rule.
	src := netip.MustParseAddr("203.0.113.7")
	table := flow.NewTable()
	add := func(ts time.Time, dst string) {
		frame := layers.AppendUDPv4(nil, src, netip.MustParseAddr(dst), 50000, 3478, []byte{1})
		pkt, err := layers.Decode(pcap.LinkTypeRaw, frame)
		if err != nil {
			t.Fatal(err)
		}
		table.Add(ts, pkt)
	}
	inside := t0.Add(-DefaultWindowSlack + 100*time.Millisecond)
	outside := t0.Add(-DefaultWindowSlack - 100*time.Millisecond)
	add(inside, "198.51.100.1")
	add(outside, "198.51.100.2")
	add(t0.Add(time.Second), "198.51.100.1")
	add(t0.Add(time.Second), "198.51.100.2")
	res := Run(table, Config{CallStart: t0, CallEnd: t0.Add(5 * time.Second)})
	if len(res.RTC) != 1 || !res.RTC[0].FirstSeen.Equal(inside) {
		t.Fatalf("RTC = %v, want only the stream starting inside the slack", res.RTC)
	}
	if len(res.RemovedStreams) != 1 || res.Removed[res.RemovedStreams[0].Key].Rule != RuleTimespan {
		t.Fatalf("removed = %v, want one timespan removal", res.Removed)
	}
	if len(DefaultSNIBlocklist) == 0 {
		t.Error("default blocklist empty")
	}
}

func TestMatchesBlocklist(t *testing.T) {
	bl := []string{"web.facebook.com", "example.org"}
	cases := map[string]bool{
		"web.facebook.com":     true,
		"sub.web.facebook.com": true,
		"notfacebook.com":      false,
		"a.example.org":        true,
		"example.org":          true,
		"badexample.org":       false,
	}
	for sni, want := range cases {
		if got := MatchesBlocklist(sni, bl); got != want {
			t.Errorf("MatchesBlocklist(%q) = %v, want %v", sni, got, want)
		}
	}
}

func TestIdempotent(t *testing.T) {
	// Running the filter on the surviving streams only must remove
	// nothing further.
	cap, _, res := generate(t, appsim.FaceTime, appsim.Cellular)
	table2 := flow.NewTable()
	for _, s := range res.RTC {
		for _, p := range s.Packets {
			// Rebuild a decoded packet the quick way: re-encode as UDP
			// or TCP frame and decode it. The record's endpoints are the
			// stream key's, in the order its direction gives.
			src, dst := s.Key.A, s.Key.B
			if p.Dir == flow.DirBToA {
				src, dst = dst, src
			}
			var frame []byte
			if s.Key.Proto == layers.IPProtocolTCP {
				frame = layers.AppendTCPv4(nil, src.Addr, dst.Addr, layers.TCP{SrcPort: src.Port, DstPort: dst.Port, Flags: p.TCPFlags}, p.Payload)
			} else if src.Addr.Is6() {
				frame = layers.AppendUDPv6(nil, src.Addr, dst.Addr, src.Port, dst.Port, p.Payload)
			} else {
				frame = layers.AppendUDPv4(nil, src.Addr, dst.Addr, src.Port, dst.Port, p.Payload)
			}
			pkt, err := layers.Decode(pcap.LinkTypeRaw, frame)
			if err != nil {
				t.Fatal(err)
			}
			table2.Add(p.Timestamp, pkt)
		}
	}
	res2 := Run(table2, Config{CallStart: cap.CallStart, CallEnd: cap.CallEnd})
	if len(res2.RemovedStreams) != 0 {
		for k, rm := range res2.Removed {
			t.Errorf("second pass removed %v: %+v", k, rm)
		}
	}
}
