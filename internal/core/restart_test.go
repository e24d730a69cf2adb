package core

import (
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// lateSSRC is the SSRC restartCapture validates late.
const lateSSRC = 0x5ca1ab1e

// lateAt is the 1-based index, in its stream, of the first of the two
// datagrams that validate lateSSRC: past the stream's first 64, so the
// pass 2 its first Feed batch ran went stale.
const lateAt = 70

// restartCapture returns a generated Zoom call in which the RTC UDP
// stream with the most datagrams gains a second SSRC only after its
// 64th datagram: its 70th and 71st datagrams are replaced by two RTP
// packets of lateSSRC, sent the same way, with consecutive sequence
// numbers. Pass 1 validates lateSSRC in the stream's second batch, so
// an untraced analyzer's pass 2 of the first batch restarts.
func restartCapture(t *testing.T) CaptureInput {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Zoom, Network: appsim.WiFiP2P, Seed: 3,
		Start: t0, CallDuration: 4 * time.Second, PrePost: 3 * time.Second,
		MediaRate: 15, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := CaptureInput{
		Label: "zoom", LinkType: pcap.LinkTypeRaw, Packets: cap.Frames(),
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
	}
	ref, err := BatchAnalyzeCapture(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var target *flow.Stream
	for _, s := range ref.Filter.RTC {
		if s.Key.Proto == layers.IPProtocolUDP && (target == nil || s.NPackets > target.NPackets) {
			target = s
		}
	}
	if target == nil || target.NPackets < 2*FeedBatchSize {
		t.Fatal("the capture has no RTC UDP stream of two full batches")
	}
	packets := append([]pcap.Packet(nil), in.Packets...)
	var pkt layers.Packet
	n := 0
	for i := range packets {
		if layers.DecodeInto(&pkt, in.LinkType, packets[i].Data) != nil {
			continue
		}
		proto, sport, dport := pkt.Transport()
		src := flow.Endpoint{Addr: pkt.Src(), Port: sport}
		dst := flow.Endpoint{Addr: pkt.Dst(), Port: dport}
		if flow.KeyFor(proto, src, dst) != target.Key {
			continue
		}
		if n++; n != lateAt && n != lateAt+1 {
			continue
		}
		if !src.Addr.Is4() {
			t.Fatalf("stream %v is not IPv4", target.Key)
		}
		seq := uint16(7000 + n)
		p := rtp.Packet{Version: 2, PayloadType: 111, SequenceNumber: seq, Timestamp: uint32(seq) * 960, SSRC: lateSSRC, Payload: make([]byte, 120)}
		packets[i].Data = layers.AppendUDPv4(nil, src.Addr, dst.Addr, sport, dport, p.Encode())
	}
	in.Packets = packets
	return in
}

// TestFeedPass2RestartMatchesBatch is the differential for a restarted
// pass 2: on restartCapture, a serial Analyzer, the 4-shard tier and a
// traced run (which never runs pass 2 at Feed) all equal the batch
// reference, and the untraced runs count the discarded first batch in
// dpi_pass2_discarded_total. Under idle eviction, which may differ from
// the batch reference, the untraced run equals the traced one.
func TestFeedPass2RestartMatchesBatch(t *testing.T) {
	in := restartCapture(t)
	want, err := BatchAnalyzeCapture(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.RTPSSRCs[lateSSRC] {
		t.Fatalf("the batch reference never extracted SSRC %#x", lateSSRC)
	}
	for _, shards := range []int{1, 4} {
		reg := metrics.NewRegistry()
		got, err := analyzeSharded(in, Options{Metrics: reg}, shards)
		if err != nil {
			t.Fatal(err)
		}
		diffAnalyses(t, "untraced", want, got)
		if n := reg.Counter("dpi_pass2_discarded_total").Value(); n == 0 {
			t.Errorf("%d shards: dpi_pass2_discarded_total = 0, want the restarted first batch", shards)
		}
	}
	traced, err := AnalyzeCapture(in, Options{Tracer: obs.NewBuffer(0)})
	if err != nil {
		t.Fatal(err)
	}
	diffAnalyses(t, "traced", want, traced)

	evict := Options{EvictIdle: 300 * time.Millisecond}
	untracedEvict, err := AnalyzeCapture(in, evict)
	if err != nil {
		t.Fatal(err)
	}
	evict.Tracer = obs.NewBuffer(0)
	tracedEvict, err := AnalyzeCapture(in, evict)
	if err != nil {
		t.Fatal(err)
	}
	diffAnalyses(t, "evict-idle untraced vs traced", tracedEvict, untracedEvict)
}
