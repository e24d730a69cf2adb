// Package bench is the shared harness behind the hot-path benchmark
// suite: it prepares synthetic app captures and drives the analyzer
// through each ingestion mode (pooled FeedBatch, AnalyzeCapture's
// in-memory batch, sharded). The root-package
// BenchmarkHotPath and the rtcbench command (make bench-json, CI
// regression gate) run the same scenarios through this package, so the
// committed BENCH_hotpath.json baseline and `go test -bench` measure
// identical code.
//
// Timing covers the ingestion loop only — the Feed/FeedBatch calls —
// with analyzer construction and Close outside the clock: the hot-path
// comparison is between the ingestion APIs themselves, and Close's
// finalization runs the same code in every mode. Heap counters span
// whole iterations (ingest plus Close): reading MemStats inside each
// iteration would flush the allocator caches and perturb the very
// loop being timed, and the per-stage allocation discipline has its
// own exact gate in TestHotPathAllocs.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/ingest"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	// The harness measures the full engine, so it registers every
	// protocol driver itself: a consumer that forgot the blank import
	// would silently benchmark an empty registry.
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// Mode selects how frames reach the analyzer.
type Mode string

const (
	// ModeFeedBatch is core.AnalyzePCAP's configuration: frames
	// delivered in 64-frame FeedBatch calls, kept payload bytes copied
	// into recycled arena chunks.
	ModeFeedBatch Mode = "feedbatch"
	// ModeBatch is core.AnalyzeCapture's configuration: the whole
	// capture in memory and referenced in place (FramesStable), one
	// Feed per frame, records dropped at each stream's DPI
	// finalization. It is the only cell on that production path, which
	// rtcc.Analyze and RunMatrix take.
	ModeBatch Mode = "batch"
	// ModeSharded is the sharded ingest tier: frames routed by flow
	// 5-tuple onto Scenario.Shards single-writer analyzer shards
	// (internal/ingest), FeedBatch-fed like ModeFeedBatch. The clock
	// covers ingestion to quiescence (router + shard drain, via Flush);
	// the cross-shard merge runs in Close, outside the clock, exactly
	// where every other mode finalizes.
	ModeSharded Mode = "sharded"
)

// Scenario is one cell of the hot-path matrix.
type Scenario struct {
	Name    string
	App     appsim.App
	Network appsim.Network
	Mode    Mode
	// MediaRate, Burst, and Background shape the synthetic call (they
	// forward to trace.Generate); the media-heavy cell turns the rate
	// up and the background chatter off so media datagrams dominate.
	MediaRate  int
	Burst      bool
	Background bool
	// CallDuration and PrePost set the call shape: the media-heavy
	// cell uses a longer in-call span and shorter shoulders so the
	// capture is media almost end to end.
	CallDuration time.Duration
	PrePost      time.Duration
	// Shards is the shard count for ModeSharded scenarios (ignored by
	// the serial modes).
	Shards int
}

// Scenarios returns the benchmark matrix: every serial ingestion mode
// over a relay-heavy pairing, a P2P pairing, and a media-heavy relay
// load. Three cells per mode keep `make bench-json` under a minute
// while covering both traffic shapes (TURN-relayed Zoom, peer-to-peer
// Meet) plus the media-dominated load where per-packet buffer churn is
// the cost that matters.
func Scenarios() []Scenario {
	var out []Scenario
	cells := []struct {
		label      string
		app        appsim.App
		net        appsim.Network
		mediaRate  int
		burst      bool
		background bool
		call       time.Duration
		prePost    time.Duration
	}{
		{"relay", appsim.Zoom, appsim.WiFiRelay, 25, false, true, 6 * time.Second, 4 * time.Second},
		{"p2p", appsim.GoogleMeet, appsim.WiFiP2P, 25, false, true, 6 * time.Second, 4 * time.Second},
		{"media-heavy", appsim.Zoom, appsim.WiFiRelay, 120, true, false, 10 * time.Second, 1 * time.Second},
	}
	for _, mode := range []Mode{ModeFeedBatch, ModeBatch} {
		for _, c := range cells {
			out = append(out, Scenario{
				Name:         fmt.Sprintf("%s/%s", mode, c.label),
				App:          c.app,
				Network:      c.net,
				Mode:         mode,
				MediaRate:    c.mediaRate,
				Burst:        c.burst,
				Background:   c.background,
				CallDuration: c.call,
				PrePost:      c.prePost,
			})
		}
	}
	// The shard-scaling curve: the media-heavy cell (the one dominated
	// by per-packet ingest cost) at 1, 2, and 4 shards. sharded1 is the
	// tier's overhead floor against feedbatch/media-heavy; the
	// sharded4:sharded1 throughput ratio is the scaling criterion
	// rtcbench gates on multi-core hosts.
	mh := cells[2]
	for _, n := range []int{1, 2, 4} {
		out = append(out, Scenario{
			Name:         fmt.Sprintf("sharded%d/%s", n, mh.label),
			App:          mh.app,
			Network:      mh.net,
			Mode:         ModeSharded,
			MediaRate:    mh.mediaRate,
			Burst:        mh.burst,
			Background:   mh.background,
			CallDuration: mh.call,
			PrePost:      mh.prePost,
			Shards:       n,
		})
	}
	return out
}

// Prepared is a scenario with its capture generated and its ingestion
// loop bound, ready to run repeatedly with no per-iteration setup.
type Prepared struct {
	Scenario Scenario
	Packets  int
	Bytes    int64
	frames   []pcap.Packet
	start    time.Time
	end      time.Time
	batch    []core.Datagram
}

// Prepare generates the scenario's capture.
func Prepare(sc Scenario) (*Prepared, error) {
	capt, err := trace.Generate(trace.CaptureConfig{
		App: sc.App, Network: sc.Network, Seed: 97,
		Start:        time.Unix(1700000000, 0).UTC(),
		CallDuration: sc.CallDuration, PrePost: sc.PrePost,
		MediaRate: sc.MediaRate, Burst: sc.Burst,
		Background: sc.Background,
	})
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		Scenario: sc,
		frames:   capt.Frames(),
		start:    capt.CallStart,
		end:      capt.CallEnd,
		batch:    make([]core.Datagram, 0, core.FeedBatchSize),
	}
	p.Packets = len(p.frames)
	for _, f := range p.frames {
		p.Bytes += int64(len(f.Data))
	}
	return p, nil
}

// RunOnce performs one full analysis of the prepared capture in the
// scenario's mode, discards the result, and reports the wall time
// spent inside the ingestion loop. Analyzer construction and Close
// sit outside the measured window.
func (p *Prepared) RunOnce() (time.Duration, error) {
	cfg := core.AnalyzerConfig{
		Label:     string(p.Scenario.App),
		LinkType:  pcap.LinkTypeRaw,
		CallStart: p.start,
		CallEnd:   p.end,
	}
	switch p.Scenario.Mode {
	case ModeSharded:
		// Same retention discipline as ModeFeedBatch (pooled arena
		// payloads), so the delta against it is purely the routing and
		// queueing cost — and, on multi-core hosts, the shard speedup.
		return p.runSharded(cfg)
	case ModeBatch:
		cfg.FramesStable = true
	}
	a, err := core.NewAnalyzer(cfg, core.Options{SkipFindings: true})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if p.Scenario.Mode == ModeFeedBatch {
		// The capture frames are stable, but FeedBatch only requires
		// them to stay valid during the call (DESIGN.md §14), so this
		// cell pays exactly the analyzer's own arena append — an
		// upstream reader ring would add a second copy FeedBatch never
		// needs.
		batch := p.batch[:0]
		for _, f := range p.frames {
			batch = append(batch, core.Datagram{Timestamp: f.Timestamp, Frame: f.Data})
			if len(batch) == core.FeedBatchSize {
				if err := a.FeedBatch(batch); err != nil {
					return 0, err
				}
				batch = batch[:0]
			}
		}
		if err := a.FeedBatch(batch); err != nil {
			return 0, err
		}
	} else {
		for _, f := range p.frames {
			if err := a.Feed(f.Timestamp, f.Data); err != nil {
				return 0, err
			}
		}
	}
	ingest := time.Since(t0)
	_, err = a.Close()
	return ingest, err
}

// runSharded is the ModeSharded ingestion loop: FeedBatch chunks into
// the sharded tier, then Flush to quiescence inside the clock — the
// ingest number includes draining every shard queue, so a slow shard
// cannot hide behind the router. Close (shard join + merge +
// finalization) stays outside, like every mode's finalization.
func (p *Prepared) runSharded(cfg core.AnalyzerConfig) (time.Duration, error) {
	sa, err := ingest.New(cfg, core.Options{SkipFindings: true}, ingest.Config{
		Shards: p.Scenario.Shards,
	})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	batch := p.batch[:0]
	for _, f := range p.frames {
		batch = append(batch, core.Datagram{Timestamp: f.Timestamp, Frame: f.Data})
		if len(batch) == core.FeedBatchSize {
			if err := sa.FeedBatch(batch); err != nil {
				return 0, err
			}
			batch = batch[:0]
		}
	}
	if err := sa.FeedBatch(batch); err != nil {
		return 0, err
	}
	if err := sa.Flush(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	_, err = sa.Close()
	return d, err
}

// Result is one scenario's measurement, the unit BENCH_hotpath.json
// records. An "op" is one analysis of the scenario's whole capture:
// NsPerOp and PktsPerSec count only the ingestion loop (the Feed or
// FeedBatch calls), while BytesPerOp and AllocsPerOp cover the whole
// iteration including finalization.
type Result struct {
	Name        string  `json:"name"`
	Packets     int     `json:"packets"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	PktsPerSec  float64 `json:"pkts_per_sec"`
}

// Measure runs the prepared scenario until both minIters iterations
// and minTime of measured ingest work have accumulated, then reports
// per-op ingest time, per-op heap traffic, and packet throughput.
func Measure(p *Prepared, minIters int, minTime time.Duration) (Result, error) {
	// Warm-up iteration: size pools, fault in the capture.
	if _, err := p.RunOnce(); err != nil {
		return Result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var ingest time.Duration
	iters := 0
	for iters < minIters || ingest < minTime {
		d, err := p.RunOnce()
		if err != nil {
			return Result{}, err
		}
		ingest += d
		iters++
	}
	runtime.ReadMemStats(&ms1)
	return Result{
		Name:        p.Scenario.Name,
		Packets:     p.Packets,
		NsPerOp:     float64(ingest.Nanoseconds()) / float64(iters),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters),
		PktsPerSec:  float64(p.Packets*iters) / ingest.Seconds(),
	}, nil
}

// MeasureBest runs Measure reps times and keeps the repetition with
// the lowest per-op ingest time. Wall-clock benchmarks on shared
// machines are one-sided: interference only ever adds time, so the
// fastest repetition is the closest observation of the code's real
// cost. Every scenario gets the same treatment, keeping ratios
// between cells fair.
func MeasureBest(p *Prepared, reps, minIters int, minTime time.Duration) (Result, error) {
	var best Result
	for r := 0; r < reps; r++ {
		res, err := Measure(p, minIters, minTime)
		if err != nil {
			return Result{}, err
		}
		if r == 0 || res.NsPerOp < best.NsPerOp {
			best = res
		}
	}
	return best, nil
}
