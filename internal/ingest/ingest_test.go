package ingest_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/ingest"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/natsim"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// Differential harness for the sharded ingest tier.
//
// The contract under test: routing a capture across N single-writer
// Analyzer shards and merging at Close produces output byte-identical
// to one serial Analyzer fed the same frames in the same order — for
// every shard count, every app, and under impairment. DESIGN.md §15
// derives why; this suite enforces it.

var t0 = time.Unix(1700000000, 0).UTC()

// shardCounts is the invariance sweep, including 16 shards — more
// shards than distinct flows in some captures, so empty shards and
// maximally fragmented tables are both exercised.
var shardCounts = []int{1, 2, 4, 16}

var invarianceSeeds = []uint64{3, 17, 29, 1234}

func genCapture(t testing.TB, app appsim.App, network appsim.Network, seed uint64) *trace.Capture {
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

// requireIdentical asserts the sharded analysis is deeply equal to
// the serial reference — every field, so any downstream rendering of
// the two is byte-identical.
func requireIdentical(t *testing.T, label string, serial, sharded *core.CaptureAnalysis) {
	t.Helper()
	if reflect.DeepEqual(serial, sharded) {
		return
	}
	t.Errorf("%s: sharded CaptureAnalysis differs from serial", label)
	if !reflect.DeepEqual(serial.Filter, sharded.Filter) {
		t.Errorf("%s: filter results differ\nserial:  %+v\nsharded: %+v", label, serial.Filter, sharded.Filter)
	}
	if !reflect.DeepEqual(serial.Stats, sharded.Stats) {
		t.Errorf("%s: stats differ\nserial:  %+v\nsharded: %+v", label, serial.Stats, sharded.Stats)
	}
	if !reflect.DeepEqual(serial.Findings, sharded.Findings) {
		t.Errorf("%s: findings differ\nserial:  %v\nsharded: %v", label, serial.Findings, sharded.Findings)
	}
	if !reflect.DeepEqual(serial.RTPSSRCs, sharded.RTPSSRCs) {
		t.Errorf("%s: SSRC sets differ", label)
	}
	if serial.Bytes != sharded.Bytes || serial.DecodeErrors != sharded.DecodeErrors {
		t.Errorf("%s: bytes/decode errors differ: %d/%d != %d/%d",
			label, sharded.Bytes, sharded.DecodeErrors, serial.Bytes, serial.DecodeErrors)
	}
}

// TestShardCountInvariance sweeps every app over the seed set and
// asserts the sharded pipeline at 1, 2, 4, and 16 shards is
// byte-identical to the serial core.AnalyzeCapture reference.
func TestShardCountInvariance(t *testing.T) {
	seeds := invarianceSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, app := range appsim.Apps {
		for _, seed := range seeds {
			cap := genCapture(t, app, appsim.WiFiRelay, seed)
			in := cap.Input()
			serial, err := core.AnalyzeCapture(in, core.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s seed %d serial: %v", app, seed, err)
			}
			for _, n := range shardCounts {
				sharded := analyzeSharded(t, cap, ingest.Config{Shards: n}, core.Options{Workers: 1})
				requireIdentical(t, fmt.Sprintf("%s seed %d shards %d", app, seed, n), serial, sharded)
			}
		}
	}
}

// TestShardInvarianceUnderImpairment repeats the invariance check on
// impaired captures: loss, reordering jitter, and NAT rebinding change
// arrival order and flow membership, the exact properties the router
// and merge depend on.
func TestShardInvarianceUnderImpairment(t *testing.T) {
	for _, prof := range natsim.StandardProfiles() {
		cap, err := trace.Generate(trace.CaptureConfig{
			App: appsim.Zoom, Network: appsim.WiFiRelay, Seed: 77,
			Start: t0, CallDuration: 2 * time.Second, PrePost: 3 * time.Second,
			MediaRate: 8, Background: true, Impair: prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := cap.Input()
		serial, err := core.AnalyzeCapture(in, core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", prof.Name, err)
		}
		for _, n := range []int{2, 4} {
			sharded := analyzeSharded(t, cap, ingest.Config{Shards: n}, core.Options{Workers: 1})
			requireIdentical(t, fmt.Sprintf("impair %s shards %d", prof.Name, n), serial, sharded)
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

// TestShardedPCAPMatchesSerial checks the streaming pcap entry point:
// the sharded AnalyzePCAP (pooled payloads, copy-at-router) against
// the serial one, with explicit and defaulted call windows.
func TestShardedPCAPMatchesSerial(t *testing.T) {
	cap := genCapture(t, appsim.GoogleMeet, appsim.WiFiP2P, 23)
	raw := capturePCAPBytes(t, cap)
	for _, window := range []struct {
		name       string
		start, end time.Time
	}{
		{"explicit", cap.CallStart, cap.CallEnd},
		{"defaulted", time.Time{}, time.Time{}},
	} {
		serial, err := core.AnalyzePCAP(bytes.NewReader(raw), "meet", window.start, window.end, core.Options{})
		if err != nil {
			t.Fatalf("%s serial: %v", window.name, err)
		}
		for _, n := range []int{1, 2, 4} {
			sharded, err := ingest.AnalyzePCAP(bytes.NewReader(raw), "meet", window.start, window.end,
				core.Options{}, ingest.Config{Shards: n})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", window.name, n, err)
			}
			requireIdentical(t, fmt.Sprintf("pcap window=%s shards=%d", window.name, n), serial, sharded)
		}
	}
}

// TestResultsHoldNoRecords pins the one retention policy: after every
// analysis entry point, serial or sharded, evicting or not, no stream
// in the result holds a per-packet record.
func TestResultsHoldNoRecords(t *testing.T) {
	cap := genCapture(t, appsim.WhatsApp, appsim.WiFiRelay, 31)
	in := cap.Input()
	raw := capturePCAPBytes(t, cap)
	pcapVia := func(shards int) func() (*core.CaptureAnalysis, error) {
		return func() (*core.CaptureAnalysis, error) {
			return ingest.AnalyzePCAP(bytes.NewReader(raw), "whatsapp", cap.CallStart, cap.CallEnd,
				core.Options{}, ingest.Config{Shards: shards})
		}
	}
	for _, tc := range []struct {
		name string
		run  func() (*core.CaptureAnalysis, error)
	}{
		{"core.AnalyzeCapture", func() (*core.CaptureAnalysis, error) {
			return core.AnalyzeCapture(in, core.Options{})
		}},
		{"core.AnalyzeCapture evicting", func() (*core.CaptureAnalysis, error) {
			return core.AnalyzeCapture(in, core.Options{EvictIdle: 500 * time.Millisecond})
		}},
		{"core.AnalyzePCAP", func() (*core.CaptureAnalysis, error) {
			return core.AnalyzePCAP(bytes.NewReader(raw), "whatsapp", cap.CallStart, cap.CallEnd, core.Options{})
		}},
		{"ingest.AnalyzePCAP 1 shard", pcapVia(1)},
		{"ingest.AnalyzePCAP 4 shards", pcapVia(4)},
	} {
		ca, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(ca.Filter.RTC) == 0 || len(ca.Filter.RemovedStreams) == 0 {
			t.Fatalf("%s: %d RTC and %d removed streams, want both", tc.name, len(ca.Filter.RTC), len(ca.Filter.RemovedStreams))
		}
		for _, streams := range [][]*flow.Stream{ca.Filter.RTC, ca.Filter.RemovedStreams} {
			for _, s := range streams {
				if len(s.Packets) != 0 {
					t.Errorf("%s: stream %v holds %d per-packet records", tc.name, s.Key, len(s.Packets))
				}
			}
		}
	}
}

// feedAll routes a capture's frames through the sharded tier in
// feedBatch-sized chunks, like the capture readers do.
func feedAll(t testing.TB, sa *ingest.ShardedAnalyzer, capt *trace.Capture) {
	t.Helper()
	batch := make([]core.Datagram, 0, 64)
	for _, f := range capt.Frames() {
		batch = append(batch, core.Datagram{Timestamp: f.Timestamp, Frame: f.Data})
		if len(batch) == cap(batch) {
			if err := sa.FeedBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := sa.FeedBatch(batch); err != nil {
		t.Fatal(err)
	}
}

// captureConfig configures the tier as core.AnalyzeCapture configures
// its Analyzer (frames referenced in place), so the two are
// byte-identical on any capture.
func captureConfig(capt *trace.Capture) core.AnalyzerConfig {
	return core.AnalyzerConfig{
		Label:     string(capt.Config.App),
		LinkType:  pcap.LinkTypeRaw,
		CallStart: capt.CallStart, CallEnd: capt.CallEnd,
		FramesStable: true,
	}
}

func newSharded(t testing.TB, capt *trace.Capture, cfg ingest.Config, opts core.Options) *ingest.ShardedAnalyzer {
	t.Helper()
	sa, err := ingest.New(captureConfig(capt), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

// newShaped is newSharded with depth batches of batch datagrams per
// shard queue.
func newShaped(t testing.TB, capt *trace.Capture, cfg ingest.Config, opts core.Options, depth, batch int) *ingest.ShardedAnalyzer {
	t.Helper()
	sa, err := ingest.NewShaped(captureConfig(capt), opts, cfg, depth, batch)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

// analyzeSharded runs a whole capture through a fresh tier.
func analyzeSharded(t testing.TB, capt *trace.Capture, cfg ingest.Config, opts core.Options) *core.CaptureAnalysis {
	t.Helper()
	sa := newSharded(t, capt, cfg, opts)
	feedAll(t, sa, capt)
	ca, err := sa.Close()
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// TestDropConservation pins the accounting semantics: datagrams are
// conserved — fed equals analyzed plus dropped — after Close, under
// both policies; and the lossless Block policy never drops.
func TestDropConservation(t *testing.T) {
	cap := genCapture(t, appsim.Zoom, appsim.WiFiRelay, 42)
	frames := len(cap.Frames())

	t.Run("drop", func(t *testing.T) {
		// A one-deep queue of one-datagram batches makes back-pressure
		// certain; how many drops land depends on worker timing, but
		// conservation must hold regardless.
		sa := newShaped(t, cap, ingest.Config{Shards: 2, Policy: ingest.Drop}, core.Options{Workers: 1}, 1, 1)
		feedAll(t, sa, cap)
		if _, err := sa.Close(); err != nil {
			t.Fatal(err)
		}
		st := sa.Stats()
		if st.Fed != uint64(frames) {
			t.Errorf("Fed = %d, want %d", st.Fed, frames)
		}
		if st.Analyzed+st.Dropped != st.Fed {
			t.Errorf("conservation violated: fed %d != analyzed %d + dropped %d",
				st.Fed, st.Analyzed, st.Dropped)
		}
		for i, ss := range st.Shards {
			if ss.Analyzed != ss.Enqueued {
				t.Errorf("shard %d: analyzed %d != enqueued %d after Close", i, ss.Analyzed, ss.Enqueued)
			}
			if ss.QueueDepth != 0 {
				t.Errorf("shard %d: queue depth %d after Close, want 0", i, ss.QueueDepth)
			}
		}
		t.Logf("drop policy: fed %d, analyzed %d, dropped %d", st.Fed, st.Analyzed, st.Dropped)
	})

	t.Run("block", func(t *testing.T) {
		sa := newShaped(t, cap, ingest.Config{Shards: 2, Policy: ingest.Block}, core.Options{Workers: 1}, 1, 1)
		feedAll(t, sa, cap)
		if _, err := sa.Close(); err != nil {
			t.Fatal(err)
		}
		st := sa.Stats()
		if st.Dropped != 0 {
			t.Errorf("Block policy dropped %d datagrams", st.Dropped)
		}
		if st.Analyzed != st.Fed || st.Fed != uint64(frames) {
			t.Errorf("lossless accounting: fed %d, analyzed %d, want both %d", st.Fed, st.Analyzed, frames)
		}
		t.Logf("block policy: fed %d, backpressure stalls %d", st.Fed, st.Backpressure)
	})
}

// TestIngestMetrics checks the /metrics surface: tier gauges and
// counters present, per-shard analyzed counters summing to fed under
// the lossless policy, and queue-depth gauges settled to zero.
func TestIngestMetrics(t *testing.T) {
	cap := genCapture(t, appsim.Discord, appsim.WiFiRelay, 7)
	reg := metrics.NewRegistry()
	sa := newSharded(t, cap, ingest.Config{Shards: 4}, core.Options{Workers: 1, Metrics: reg})
	feedAll(t, sa, cap)
	if _, err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	app := string(cap.Config.App)

	fed := snap.Counters[metrics.Name("ingest_datagrams_fed_total", metrics.L("app", app))]
	if fed != uint64(len(cap.Frames())) {
		t.Errorf("ingest_datagrams_fed_total = %d, want %d", fed, len(cap.Frames()))
	}
	if v := snap.Gauges[metrics.Name("ingest_shards", metrics.L("app", app))]; v != 4 {
		t.Errorf("ingest_shards = %d, want 4", v)
	}
	var analyzed, dropped uint64
	for i := 0; i < 4; i++ {
		labels := []metrics.Label{metrics.L("app", app), metrics.L("shard", fmt.Sprint(i))}
		analyzed += snap.Counters[metrics.Name("ingest_datagrams_analyzed_total", labels...)]
		dropped += snap.Counters[metrics.Name("ingest_datagrams_dropped_total", labels...)]
		if d := snap.Gauges[metrics.Name("ingest_queue_depth", labels...)]; d != 0 {
			t.Errorf("shard %d: ingest_queue_depth = %d after Close, want 0", i, d)
		}
	}
	if dropped != 0 {
		t.Errorf("dropped %d under Block policy", dropped)
	}
	if analyzed != fed {
		t.Errorf("per-shard analyzed sum %d != fed %d", analyzed, fed)
	}
}

// TestFlushBarrier checks Flush semantics: after Flush every enqueued
// datagram is analyzed (the barrier really waits), feeding may resume,
// and the final result is still byte-identical to serial.
func TestFlushBarrier(t *testing.T) {
	cap := genCapture(t, appsim.WhatsApp, appsim.WiFiRelay, 31)
	in := cap.Input()
	serial, err := core.AnalyzeCapture(in, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	sa := newSharded(t, cap, ingest.Config{Shards: 4}, core.Options{Workers: 1})
	frames := cap.Frames()
	half := len(frames) / 2
	for _, f := range frames[:half] {
		if err := sa.Feed(f.Timestamp, f.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Flush(); err != nil {
		t.Fatal(err)
	}
	st := sa.Stats()
	if st.Analyzed != uint64(half) {
		t.Errorf("after Flush: analyzed %d, want %d (barrier returned early)", st.Analyzed, half)
	}
	for _, f := range frames[half:] {
		if err := sa.Feed(f.Timestamp, f.Data); err != nil {
			t.Fatal(err)
		}
	}
	sharded, err := sa.Close()
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "flush mid-capture", serial, sharded)
}

// TestShardedMisuse pins the lifecycle and configuration errors.
func TestShardedMisuse(t *testing.T) {
	if _, err := ingest.New(core.AnalyzerConfig{ExternalSeq: true}, core.Options{}, ingest.Config{}); err == nil {
		t.Error("caller-set ExternalSeq accepted")
	}
	cap := genCapture(t, appsim.Zoom, appsim.WiFiP2P, 1)
	sa := newSharded(t, cap, ingest.Config{Shards: 2}, core.Options{Workers: 1})
	feedAll(t, sa, cap)
	if _, err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sa.Feed(cap.CallEnd, nil); err == nil {
		t.Error("Feed after Close accepted")
	}
	if err := sa.FeedBatch([]core.Datagram{{}}); err == nil {
		t.Error("FeedBatch after Close accepted")
	}
	if err := sa.Flush(); err == nil {
		t.Error("Flush after Close accepted")
	}
	if _, err := sa.Close(); err == nil {
		t.Error("second Close accepted")
	}
}

// TestEvictionRunsOnOneShard pins the one eviction rule: idle eviction
// resolves the default shard count to one and rejects an explicit
// count above one, in New and in ShardCount alike.
func TestEvictionRunsOnOneShard(t *testing.T) {
	cap := genCapture(t, appsim.Zoom, appsim.WiFiRelay, 5)
	acfg := captureConfig(cap)
	evict := core.Options{EvictIdle: 30 * time.Millisecond}
	for _, n := range []int{2, 4, 16} {
		if _, err := ingest.New(acfg, evict, ingest.Config{Shards: n}); err == nil {
			t.Errorf("New accepted idle eviction on %d shards", n)
		}
		if _, err := ingest.ShardCount(n, evict.EvictIdle); err == nil {
			t.Errorf("ShardCount accepted idle eviction on %d shards", n)
		}
	}
	for _, n := range []int{0, 1} {
		sa, err := ingest.New(acfg, evict, ingest.Config{Shards: n})
		if err != nil {
			t.Fatalf("shards %d: %v", n, err)
		}
		if got := len(sa.Stats().Shards); got != 1 {
			t.Errorf("shards %d with eviction: tier has %d shards, want 1", n, got)
		}
		feedAll(t, sa, cap)
		if _, err := sa.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := ingest.ShardCount(0, 0); err != nil || n != runtime.GOMAXPROCS(0) {
		t.Errorf("ShardCount(0, 0) = %d, %v; want one per CPU (%d)", n, err, runtime.GOMAXPROCS(0))
	}
}

// TestOneShardRunsInline: a one-shard tier starts no goroutine and
// feeds its shard on the caller's goroutine, so even a one-deep queue
// of one-datagram batches under Drop sheds nothing, and the result is
// the serial Analyzer's.
func TestOneShardRunsInline(t *testing.T) {
	cap := genCapture(t, appsim.Zoom, appsim.WiFiRelay, 42)
	serial, err := core.AnalyzeCapture(cap.Input(), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	sa := newShaped(t, cap, ingest.Config{Shards: 1, Policy: ingest.Drop}, core.Options{Workers: 1}, 1, 1)
	feedAll(t, sa, cap)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("one-shard tier runs %d goroutines beyond the caller's %d", after-before, before)
	}
	if st := sa.Stats(); st.Analyzed != st.Fed {
		t.Errorf("before Close: analyzed %d of %d fed, want all (no queue to wait in)", st.Analyzed, st.Fed)
	}
	sharded, err := sa.Close()
	if err != nil {
		t.Fatal(err)
	}
	st := sa.Stats()
	if st.Dropped != 0 || st.Backpressure != 0 || st.Fed != uint64(len(cap.Frames())) {
		t.Errorf("one shard under Drop: %+v, want every datagram analyzed", st)
	}
	requireIdentical(t, "one inline shard", serial, sharded)
}

// TestShardRaceHammer drives the full tier — router, bounded queues,
// four shard workers, concurrent Stats readers, a mid-stream Flush —
// under load. Run with -race (make shard-smoke, CI), where any
// cross-goroutine ownership violation in the single-writer story
// becomes a hard failure.
func TestShardRaceHammer(t *testing.T) {
	cap := genCapture(t, appsim.Zoom, appsim.WiFiRelay, 31337)
	reg := metrics.NewRegistry()
	sa := newShaped(t, cap, ingest.Config{Shards: 4}, core.Options{Workers: 1, Metrics: reg}, 2, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = sa.Stats()
				_ = reg.Snapshot()
			}
		}
	}()

	frames := cap.Frames()
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	fed := 0
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			// Re-feeding the same capture multiplies load without new
			// fixtures; the analysis result is irrelevant here.
			if err := sa.Feed(f.Timestamp.Add(time.Duration(r)*time.Second), f.Data); err != nil {
				t.Fatal(err)
			}
			fed++
		}
		if r == rounds/2 {
			if err := sa.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	st := sa.Stats()
	if st.Fed != uint64(fed) {
		t.Errorf("fed %d, accounted %d", fed, st.Fed)
	}
	if st.Analyzed+st.Dropped != st.Fed {
		t.Errorf("conservation violated: fed %d != analyzed %d + dropped %d", st.Fed, st.Analyzed, st.Dropped)
	}
}
