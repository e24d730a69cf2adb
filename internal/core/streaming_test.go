package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// Differential harness for the streaming Analyzer.
//
// The contract under test: the incremental single-pass pipeline
// (AnalyzeCapture and AnalyzePCAP, both built on core.Analyzer) produces
// output byte-identical to the retained batch reference
// (BatchAnalyzeCapture / BatchAnalyzePCAP) across the full experiment
// matrix, for every worker count, with and without payload retention.

// streamingSeeds drives the differential sweep; -short trims it.
var streamingSeeds = []uint64{3, 17, 29, 77, 1234, 98765}

var streamingNetworks = []appsim.Network{appsim.WiFiP2P, appsim.WiFiRelay, appsim.Cellular}

func streamingCapture(t testing.TB, app appsim.App, network appsim.Network, seed uint64) *trace.Capture {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App: app, Network: network, Seed: seed,
		Start: t0, CallDuration: 2 * time.Second, PrePost: 3 * time.Second,
		MediaRate: 8, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

func diffAnalyses(t *testing.T, label string, want, got *CaptureAnalysis) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	t.Errorf("%s: streaming and batch CaptureAnalysis differ", label)
	if !reflect.DeepEqual(want.Filter, got.Filter) {
		t.Errorf("%s: filter results differ\nbatch:     %+v\nstreaming: %+v", label, want.Filter, got.Filter)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: stats differ\nbatch:     %+v\nstreaming: %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Findings, got.Findings) {
		t.Errorf("%s: findings differ\nbatch:     %v\nstreaming: %v", label, want.Findings, got.Findings)
	}
	if !reflect.DeepEqual(want.RTPSSRCs, got.RTPSSRCs) {
		t.Errorf("%s: SSRC sets differ", label)
	}
	if want.Bytes != got.Bytes {
		t.Errorf("%s: bytes %d != %d", label, got.Bytes, want.Bytes)
	}
	if want.DecodeErrors != got.DecodeErrors {
		t.Errorf("%s: decode errors %d != %d", label, got.DecodeErrors, want.DecodeErrors)
	}
}

// TestStreamingBatchEquivalence sweeps the full 6-app × 3-network matrix
// over the seed set and asserts the streaming AnalyzeCapture is deeply
// equal to the batch reference, on the serial path and on the worker
// pool.
func TestStreamingBatchEquivalence(t *testing.T) {
	seeds := streamingSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, app := range appsim.Apps {
		for _, network := range streamingNetworks {
			for _, seed := range seeds {
				cap := streamingCapture(t, app, network, seed)
				in := cap.Input()
				batch, err := BatchAnalyzeCapture(in, Options{Workers: 1})
				if err != nil {
					t.Fatalf("%s/%s seed %d batch: %v", app, network, seed, err)
				}
				for _, workers := range []int{1, 8} {
					streaming, err := AnalyzeCapture(in, Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s/%s seed %d workers=%d: %v", app, network, seed, workers, err)
					}
					diffAnalyses(t, fmt.Sprintf("%s/%s seed %d workers %d", app, network, seed, workers), batch, streaming)
				}
			}
		}
	}
}

func capturePCAPBytes(t testing.TB, cap *trace.Capture) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeRaw)
	for _, fr := range cap.Frames() {
		if err := w.WritePacket(fr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestStreamingPCAPMatchesBatch runs the record-at-a-time pcap path with
// payload retention against the read-everything baseline and requires
// deep equality — including per-packet records — both with an explicit
// call window and with the window defaulted to the capture span.
func TestStreamingPCAPMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		app     appsim.App
		network appsim.Network
		seed    uint64
	}{
		{appsim.Zoom, appsim.WiFiRelay, 5},
		{appsim.FaceTime, appsim.WiFiP2P, 23},
		{appsim.GoogleMeet, appsim.Cellular, 51},
	} {
		cap := streamingCapture(t, tc.app, tc.network, tc.seed)
		raw := capturePCAPBytes(t, cap)
		for _, window := range []struct {
			name       string
			start, end time.Time
		}{
			{"explicit", cap.CallStart, cap.CallEnd},
			{"defaulted", time.Time{}, time.Time{}},
		} {
			opts := Options{KeepPayloads: true}
			batch, err := BatchAnalyzePCAP(bytes.NewReader(raw), string(tc.app), window.start, window.end, opts)
			if err != nil {
				t.Fatalf("%s %s batch: %v", tc.app, window.name, err)
			}
			streaming, err := AnalyzePCAP(bytes.NewReader(raw), string(tc.app), window.start, window.end, opts)
			if err != nil {
				t.Fatalf("%s %s streaming: %v", tc.app, window.name, err)
			}
			diffAnalyses(t, fmt.Sprintf("%s/%s window=%s", tc.app, tc.network, window.name), batch, streaming)
		}
	}
}

// diffAnalysesSansPayloads compares every externally visible field
// except per-packet records, which the bounded-memory paths discard.
func diffAnalysesSansPayloads(t *testing.T, label string, want, got *CaptureAnalysis) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: stats differ\nbatch:     %+v\nstreaming: %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Findings, got.Findings) {
		t.Errorf("%s: findings differ\nbatch:     %v\nstreaming: %v", label, want.Findings, got.Findings)
	}
	if !reflect.DeepEqual(want.RTPSSRCs, got.RTPSSRCs) {
		t.Errorf("%s: SSRC sets differ", label)
	}
	if want.Bytes != got.Bytes || want.DecodeErrors != got.DecodeErrors {
		t.Errorf("%s: bytes/decode errors differ: %d/%d != %d/%d",
			label, got.Bytes, got.DecodeErrors, want.Bytes, want.DecodeErrors)
	}
	wf, gf := want.Filter, got.Filter
	if wf.RawUDP != gf.RawUDP || wf.RawTCP != gf.RawTCP ||
		wf.Stage1UDP != gf.Stage1UDP || wf.Stage1TCP != gf.Stage1TCP ||
		wf.Stage2UDP != gf.Stage2UDP || wf.Stage2TCP != gf.Stage2TCP ||
		wf.RTCUDP != gf.RTCUDP || wf.RTCTCP != gf.RTCTCP {
		t.Errorf("%s: filter accounting differs\nbatch:     %+v\nstreaming: %+v", label, wf, gf)
	}
	if len(wf.RTC) != len(gf.RTC) || len(wf.Removed) != len(gf.Removed) {
		t.Errorf("%s: stream partitions differ: RTC %d/%d removed %d/%d",
			label, len(gf.RTC), len(wf.RTC), len(gf.Removed), len(wf.Removed))
	}
	if !reflect.DeepEqual(wf.Removed, gf.Removed) {
		t.Errorf("%s: removal attributions differ\nbatch:     %v\nstreaming: %v", label, wf.Removed, gf.Removed)
	}
}

// TestStreamingPCAPDropsPayloads checks the bounded-memory contract: by
// default AnalyzePCAP must not return payload records for any stream,
// while still matching the batch result on every aggregate.
func TestStreamingPCAPDropsPayloads(t *testing.T) {
	cap := streamingCapture(t, appsim.WhatsApp, appsim.WiFiRelay, 31)
	raw := capturePCAPBytes(t, cap)
	batch, err := BatchAnalyzePCAP(bytes.NewReader(raw), "whatsapp", cap.CallStart, cap.CallEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := AnalyzePCAP(bytes.NewReader(raw), "whatsapp", cap.CallStart, cap.CallEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diffAnalysesSansPayloads(t, "whatsapp", batch, streaming)
	for _, s := range streaming.Filter.RTC {
		if len(s.Packets) != 0 {
			t.Fatalf("RTC stream %v retained %d payload records without KeepPayloads", s.Key, len(s.Packets))
		}
	}
	for _, rs := range streaming.Filter.RemovedStreams {
		if len(rs.Packets) != 0 {
			t.Fatalf("removed stream %v retained %d payload records", rs.Key, len(rs.Packets))
		}
	}
}

// TestStreamingPCAPEvictionEquivalence turns on idle-stream eviction —
// chunked DPI finalization and mid-capture buffer release — and checks
// the aggregates still match the batch reference: the RTC streams stay
// continuously active, so chunk boundaries never split an SSRC's
// validation window in these captures.
func TestStreamingPCAPEvictionEquivalence(t *testing.T) {
	for _, tc := range []struct {
		app  appsim.App
		seed uint64
	}{
		{appsim.Zoom, 7},
		{appsim.Discord, 19},
		{appsim.Messenger, 63},
	} {
		cap := streamingCapture(t, tc.app, appsim.WiFiRelay, tc.seed)
		raw := capturePCAPBytes(t, cap)
		batch, err := BatchAnalyzePCAP(bytes.NewReader(raw), string(tc.app), cap.CallStart, cap.CallEnd, Options{})
		if err != nil {
			t.Fatal(err)
		}
		streaming, err := AnalyzePCAP(bytes.NewReader(raw), string(tc.app), cap.CallStart, cap.CallEnd,
			Options{EvictIdle: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		diffAnalysesSansPayloads(t, fmt.Sprintf("%s evicting", tc.app), batch, streaming)
	}
}

// TestAnalyzerMisuse pins the Analyzer's lifecycle and configuration
// errors.
func TestAnalyzerMisuse(t *testing.T) {
	if _, err := NewAnalyzer(AnalyzerConfig{CallStart: t0, CallEnd: t0.Add(-time.Second)}, Options{}); err == nil {
		t.Error("inverted call window accepted")
	}
	if _, err := NewAnalyzer(AnalyzerConfig{KeepPayloads: true}, Options{EvictIdle: time.Second}); err == nil {
		t.Error("KeepPayloads with EvictIdle accepted")
	}
	// AnalyzeCapture retains payloads, so it cannot evict: the knob is
	// rejected rather than silently ignored.
	if _, err := AnalyzeCapture(CaptureInput{}, Options{EvictIdle: time.Second}); err == nil {
		t.Error("AnalyzeCapture with EvictIdle accepted")
	}

	cap := streamingCapture(t, appsim.Zoom, appsim.WiFiP2P, 1)
	a, err := NewAnalyzer(AnalyzerConfig{
		Label: "zoom", LinkType: pcap.LinkTypeRaw,
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
		KeepPayloads: true, FramesStable: true,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range cap.Frames() {
		if err := a.Feed(fr.Timestamp, fr.Data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Feed(cap.CallEnd, nil); err == nil {
		t.Error("Feed after Close accepted")
	}
	if _, err := a.Close(); err == nil {
		t.Error("second Close accepted")
	}
}

// TestAnalyzerStreamingMetrics checks the streaming instrumentation:
// one feed-latency observation per FeedBatch call (AnalyzePCAP feeds in
// feedBatchSize batches), a matching batch counter, a live-stream gauge
// that returns to zero with a positive high-water mark, and eviction
// activity under an aggressive idle bound.
func TestAnalyzerStreamingMetrics(t *testing.T) {
	cap := streamingCapture(t, appsim.FaceTime, appsim.WiFiRelay, 9)
	raw := capturePCAPBytes(t, cap)
	reg := metrics.NewRegistry()
	if _, err := AnalyzePCAP(bytes.NewReader(raw), "facetime", cap.CallStart, cap.CallEnd,
		Options{EvictIdle: 200 * time.Millisecond, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	feeds := uint64(0)
	for name, h := range snap.Histograms {
		if name == "core_feed_seconds" || len(name) > len("core_feed_seconds") && name[:len("core_feed_seconds")+1] == "core_feed_seconds{" {
			feeds += h.Count
		}
	}
	wantBatches := uint64((len(cap.Frames()) + feedBatchSize - 1) / feedBatchSize)
	if feeds != wantBatches {
		t.Errorf("core_feed_seconds observations = %d, want %d (one per batch of %d)", feeds, wantBatches, feedBatchSize)
	}
	if v := sumCounters(snap, "core_feed_batches_total"); v != wantBatches {
		t.Errorf("core_feed_batches_total = %d, want %d", v, wantBatches)
	}
	if v := snap.Gauges[metrics.Name("core_active_streams", metrics.L("app", "facetime"))]; v != 0 {
		t.Errorf("core_active_streams = %d after Close, want 0", v)
	}
	if v := snap.Gauges[metrics.Name("core_active_streams_peak", metrics.L("app", "facetime"))]; v <= 0 {
		t.Errorf("core_active_streams_peak = %d, want > 0", v)
	}
	if v := sumCounters(snap, "core_evicted_streams_total"); v == 0 {
		t.Error("core_evicted_streams_total = 0 under a 200ms idle bound on a background-heavy capture")
	}
}

// TestStreamingMemoryRatio pins the acceptance criterion for the
// single-pass pcap path: on a large, bulk-traffic-dominated capture —
// the mix the paper's capture hosts actually record — the streaming
// AnalyzePCAP must allocate at least 5x fewer bytes per run than the
// read-everything batch baseline, because it never materializes the
// file: frames pass through one reusable buffer and only
// provisionally-RTC UDP payloads are copied until DPI consumes them.
func TestStreamingMemoryRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark; skipped in -short")
	}
	cap, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Zoom, Network: appsim.WiFiRelay, Seed: 4242,
		Start: t0, CallDuration: 3 * time.Second, PrePost: 60 * time.Second,
		MediaRate: 10, Background: true, BackgroundBulk: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := capturePCAPBytes(t, cap)
	opts := Options{SkipFindings: true}
	run := func(f func(io.Reader, string, time.Time, time.Time, Options) (*CaptureAnalysis, error)) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f(bytes.NewReader(raw), "zoom", cap.CallStart, cap.CallEnd, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.AllocedBytesPerOp())
	}
	streaming := run(AnalyzePCAP)
	batch := run(BatchAnalyzePCAP)
	if streaming <= 0 {
		t.Fatalf("streaming AllocedBytesPerOp = %v", streaming)
	}
	ratio := batch / streaming
	t.Logf("bytes/op: batch %.0f, streaming %.0f, ratio %.1fx (capture %d bytes)",
		batch, streaming, ratio, len(raw))
	if ratio < 5 {
		t.Errorf("streaming AnalyzePCAP allocates only %.1fx fewer bytes/op than batch, want >= 5x", ratio)
	}
}
