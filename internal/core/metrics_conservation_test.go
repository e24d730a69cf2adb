package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// sumCounters adds up every counter whose name is base or base{...},
// folding all label combinations together.
func sumCounters(s metrics.Snapshot, base string) uint64 {
	var total uint64
	for name, v := range s.Counters {
		if name == base || strings.HasPrefix(name, base+"{") {
			total += v
		}
	}
	return total
}

// TestMetricsConservation runs six seeded captures through the
// instrumented pipeline, on one Analyzer and on 4 shards, and checks
// the flow-conservation invariants the counters must satisfy regardless
// of scheduling: every input frame is accounted for as decoded or a
// decode error, every decoded packet as a stage-1 drop, stage-2 drop,
// or RTC survivor, every inspected datagram carries exactly one
// classification, and every verdict is a pass or a per-criterion
// failure. On shards it also pins that only the merged analysis runs
// DPI and compliance: a stream a shard admitted provisionally and the
// merged filter removed must leave no datagram or verdict count.
func TestMetricsConservation(t *testing.T) {
	cases := []struct {
		app     appsim.App
		network appsim.Network
		seed    uint64
		garbage int // undecodable frames appended to the capture
	}{
		{appsim.Zoom, appsim.WiFiP2P, 1, 0},
		{appsim.FaceTime, appsim.WiFiRelay, 2, 9},
		{appsim.WhatsApp, appsim.Cellular, 3, 0},
		{appsim.Messenger, appsim.WiFiRelay, 5, 0},
		{appsim.Discord, appsim.WiFiP2P, 8, 4},
		{appsim.GoogleMeet, appsim.Cellular, 13, 0},
	}
	var reclassified uint64
	for _, tc := range cases {
		// Four seconds of call and ten of pre-call capture: long enough
		// for the background's in-call LAN chatter and its pre-call pair.
		cap, err := trace.Generate(trace.CaptureConfig{
			App: tc.app, Network: tc.network, Seed: tc.seed,
			Start: t0, CallDuration: 4 * time.Second, PrePost: 10 * time.Second,
			MediaRate: 10, Background: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		frames := cap.Frames()
		for i := 0; i < tc.garbage; i++ {
			frames = append(frames, pcap.Packet{
				Timestamp: cap.CallStart.Add(time.Duration(i) * time.Millisecond),
				Data:      []byte{0xba, 0xad},
			})
		}

		for _, shards := range []int{1, 4} {
			n := checkConservation(t, fmt.Sprintf("%s shards %d", tc.app, shards), CaptureInput{
				Label: string(tc.app), LinkType: pcap.LinkTypeRaw, Packets: frames,
				CallStart: cap.CallStart, CallEnd: cap.CallEnd,
			}, shards)
			if shards > 1 {
				reclassified += n
			}
		}
	}
	// The in-call LAN chatter's pre-call evidence sits on another shard,
	// so a shard admits it and the merge removes it; without such
	// streams the sharded runs would not test that removal is free.
	if reclassified == 0 {
		t.Fatal("no sharded run reclassified a stream; the sharded invariants are vacuous")
	}
}

// checkConservation analyzes in on the given shard count with a fresh
// registry, checks TestMetricsConservation's invariants, and returns
// core_reclassified_streams_total.
func checkConservation(t *testing.T, name string, in CaptureInput, shards int) uint64 {
	t.Helper()
	frames := in.Packets
	reg := metrics.NewRegistry()
	ca, err := analyzeSharded(in, Options{Metrics: reg}, shards)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	// Frames in == decoded + decode errors.
	if got := sumCounters(snap, "core_frames_total"); got != uint64(len(frames)) {
		t.Errorf("%s: core_frames_total = %d, want %d", name, got, len(frames))
	}
	if got := sumCounters(snap, "core_decode_errors_total"); got != uint64(ca.DecodeErrors) {
		t.Errorf("%s: core_decode_errors_total = %d, want %d", name, got, ca.DecodeErrors)
	}
	decoded := uint64(len(frames) - ca.DecodeErrors)

	// Decoded packets == filter input == drops + RTC survivors.
	filterIn := sumCounters(snap, "filter_in_packets_total")
	if filterIn != decoded {
		t.Errorf("%s: filter_in_packets_total = %d, want %d decoded", name, filterIn, decoded)
	}
	removed := sumCounters(snap, "filter_removed_packets_total")
	rtc := sumCounters(snap, "filter_rtc_packets_total")
	if removed+rtc != filterIn {
		t.Errorf("%s: removed %d + rtc %d != filter input %d", name, removed, rtc, filterIn)
	}
	f := ca.Filter
	if want := uint64(f.RTCUDP.Packets + f.RTCTCP.Packets); rtc != want {
		t.Errorf("%s: filter_rtc_packets_total = %d, want %d from analysis", name, rtc, want)
	}
	if got := sumCounters(snap, "core_rtc_udp_streams_total"); got != uint64(f.RTCUDP.Streams) {
		t.Errorf("%s: core_rtc_udp_streams_total = %d, want %d", name, got, f.RTCUDP.Streams)
	}

	// Each inspected datagram carries exactly one classification, and
	// the per-class counters mirror the analysis tallies.
	var datagrams uint64
	for class, n := range ca.Stats.Datagrams {
		datagrams += uint64(n)
		key := map[string]string{
			"fully proprietary":  "fully_proprietary",
			"standard":           "standard",
			"proprietary header": "proprietary_header",
		}[class.String()]
		got := snap.Counters["dpi_datagrams_total{class="+key+"}"]
		if got != uint64(n) {
			t.Errorf("%s: dpi_datagrams_total{class=%s} = %d, want %d", name, key, got, n)
		}
	}
	if got := sumCounters(snap, "dpi_datagrams_total"); got != datagrams {
		t.Errorf("%s: dpi_datagrams_total sum = %d, want %d", name, got, datagrams)
	}

	// Every verdict is a pass or exactly one per-criterion failure,
	// and the failure tally matches the per-criterion violations.
	var messages, compliant, violations uint64
	for _, ps := range ca.Stats.ByProtocol {
		messages += uint64(ps.Messages)
		compliant += uint64(ps.Compliant)
	}
	for _, n := range ca.Stats.Violations {
		violations += uint64(n)
	}
	pass := sumCounters(snap, "compliance_pass_total")
	fail := sumCounters(snap, "compliance_fail_total")
	if pass != compliant {
		t.Errorf("%s: compliance_pass_total = %d, want %d", name, pass, compliant)
	}
	if fail != messages-compliant {
		t.Errorf("%s: compliance_fail_total = %d, want %d", name, fail, messages-compliant)
	}
	if fail != violations {
		t.Errorf("%s: compliance_fail_total = %d, want %d violations", name, fail, violations)
	}
	return sumCounters(snap, "core_reclassified_streams_total")
}

func assertCaptureEqual(t *testing.T, label string, want, got *CaptureAnalysis) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: CaptureAnalysis differs", label)
	}
}

// TestMetricsSchedulingIndependence reruns the capture-level determinism
// check with a registry attached to both the serial and an 8-shard
// run: the analyses must stay deeply equal (metrics are a write-only
// side channel) and the recorded counter totals and histogram counts
// must be identical — only latency values may differ. The core.feed
// stage is the exception: it counts each analyzer's own FeedBatch
// calls, which the shards split differently. The second capture
// restarts the pass 2 a stream's first Feed batch ran, and a stream's
// batches are its own at every shard count, so
// dpi_pass2_discarded_total is nonzero and equal too.
func TestMetricsSchedulingIndependence(t *testing.T) {
	cap, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Zoom, Network: appsim.WiFiRelay, Seed: 31337,
		Start: t0, CallDuration: 4 * time.Second, PrePost: 5 * time.Second,
		MediaRate: 15, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMetricsSchedulingIndependence(t, CaptureInput{
		Label: "zoom", LinkType: pcap.LinkTypeRaw, Packets: cap.Frames(),
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
	}, metrics.NewRegistry())
	restart := metrics.NewRegistry()
	checkMetricsSchedulingIndependence(t, restartCapture(t), restart)
	if restart.Counter("dpi_pass2_discarded_total").Value() == 0 {
		t.Error("restart capture: dpi_pass2_discarded_total = 0")
	}
}

// checkMetricsSchedulingIndependence is TestMetricsSchedulingIndependence
// on one capture, whose serial run records into regSerial.
func checkMetricsSchedulingIndependence(t *testing.T, in CaptureInput, regSerial *metrics.Registry) {
	t.Helper()
	serial, err := AnalyzeCapture(in, Options{Metrics: regSerial})
	if err != nil {
		t.Fatal(err)
	}
	regParallel := metrics.NewRegistry()
	parallel, err := analyzeSharded(in, Options{Metrics: regParallel}, 8)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := analyzeSharded(in, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}

	assertCaptureEqual(t, "serial+metrics vs parallel+metrics", serial, parallel)
	assertCaptureEqual(t, "parallel+metrics vs parallel bare", parallel, bare)

	ss, ps := regSerial.Snapshot(), regParallel.Snapshot()
	if len(ss.Counters) != len(ps.Counters) {
		t.Errorf("counter sets differ: serial %d, parallel %d", len(ss.Counters), len(ps.Counters))
	}
	for name, v := range ss.Counters {
		if pv, ok := ps.Counters[name]; !ok || pv != v {
			t.Errorf("counter %s: serial %d, parallel %d (present %v)", name, v, pv, ok)
		}
	}
	if len(ss.Histograms) != len(ps.Histograms) {
		t.Errorf("histogram sets differ: serial %d, parallel %d", len(ss.Histograms), len(ps.Histograms))
	}
	for name, h := range ss.Histograms {
		if strings.Contains(name, "stage=core.feed") {
			continue
		}
		if ph, ok := ps.Histograms[name]; !ok || ph.Count != h.Count {
			t.Errorf("histogram %s count: serial %d, parallel %d (present %v)", name, h.Count, ph.Count, ok)
		}
	}
}
