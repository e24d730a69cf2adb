package filterpipe

import (
	"testing"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// TestOnlineVerdictsHoldAtClose is the monotonicity property the
// streaming analyzer relies on: every rule Check reports on partial
// evidence, grown packet by packet, still removes the stream in the
// final filter run. Without a known window only the window-free rules
// (SNI, port) may fire.
func TestOnlineVerdictsHoldAtClose(t *testing.T) {
	cap, _, res := generate(t, appsim.GoogleMeet, appsim.WiFiP2P)
	for _, windowKnown := range []bool{true, false} {
		table := flow.NewTable()
		ev := NewEvidence(table)
		if windowKnown {
			ev.SetWindow(cap.CallStart, cap.CallEnd)
		}
		sni := make(map[flow.Key]string)
		online := make(map[flow.Key]Rule)
		for _, f := range cap.Frames() {
			pkt, err := layers.Decode(pcap.LinkTypeRaw, f.Data)
			if err != nil {
				t.Fatal(err)
			}
			s, ok := table.AddPacket(f.Timestamp, pkt, false)
			if !ok {
				continue
			}
			ev.Observe(f.Timestamp, s.Key)
			if s.Key.Proto == layers.IPProtocolTCP && sni[s.Key] == "" && len(pkt.Payload) > 0 {
				if name, err := tlsinspect.SNI(pkt.Payload); err == nil {
					sni[s.Key] = name
				}
			}
			if _, done := online[s.Key]; done {
				continue
			}
			if rule, _ := ev.Check(s, sni[s.Key]); rule != "" {
				online[s.Key] = rule
			}
		}
		if len(online) == 0 {
			t.Fatalf("window known=%v: no rule fired online", windowKnown)
		}
		for key, rule := range online {
			if _, removed := res.Removed[key]; !removed {
				t.Errorf("window known=%v: %v failed %q online but survives the final filter", windowKnown, key, rule)
			}
			if !windowKnown && rule != RuleSNI && rule != RulePort {
				t.Errorf("window unknown: %v failed window rule %q", key, rule)
			}
		}
	}
}

// TestCheckAllocatesNothing: the rule function runs once per stream per
// feed batch on the analyzer's hot path, so neither a pass nor a
// removal (including the 3-tuple rule, which reports its tuple) may
// allocate.
func TestCheckAllocatesNothing(t *testing.T) {
	cap, table, res := generate(t, appsim.GoogleMeet, appsim.WiFiP2P)
	ev := NewEvidence(table)
	ev.SetWindow(cap.CallStart, cap.CallEnd)
	for _, s := range table.Streams() {
		ev.Observe(s.FirstSeen, s.Key)
	}
	for _, s := range table.Streams() {
		name, _ := streamSNI(s)
		rule, _ := ev.Check(s, name)
		if want := res.Removed[s.Key].Rule; rule != want {
			t.Fatalf("%v: Check = %q, filter run removed it by %q", s.Key, rule, want)
		}
		if allocs := testing.AllocsPerRun(50, func() { ev.Check(s, name) }); allocs != 0 {
			t.Errorf("%v (rule %q): Check allocates %.1f/op, want 0", s.Key, rule, allocs)
		}
	}
}
