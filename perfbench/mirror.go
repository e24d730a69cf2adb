package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	"github.com/rtc-compliance/rtcc/internal/report"
	"github.com/rtc-compliance/rtcc/internal/trace"
	"github.com/rtc-compliance/rtcc/internal/trend"
)

// mirrorSize shapes the mirror-epochs workload. Every epoch replays the
// whole mirror capture, so all epochs carry the same work: a complete
// call plus its bulk, never a slice that cuts the call differently.
type mirrorSize struct {
	call, prePost time.Duration
	// mediaRate is the call's RTP packet rate per stream: three times
	// appsim's default, so one epoch holds enough call datagrams that
	// one seed's call costs about what another's does.
	mediaRate int
	// bulk is the number of unrelated bulk TCP segments in the capture.
	bulk int
}

func mirrorSizes(o options) mirrorSize {
	if o.small {
		return mirrorSize{call: 5 * time.Second, prePost: 2 * time.Second, bulk: 2000}
	}
	return mirrorSize{call: 10 * time.Second, prePost: 2 * time.Second, mediaRate: 75, bulk: 10000}
}

// mirror is the mirror-epochs workload's state.
type mirror struct {
	size  mirrorSize
	label string
	path  string
	// frames is one epoch's input; ref is its point from one serial
	// Analyzer fed the same frames, refKey that point's verdict content,
	// and refCA the analysis behind it.
	frames []pcap.Packet
	ref    trend.Point
	refKey string
	refCA  *core.CaptureAnalysis
	l      *lane
}

// analyzerConfig is the configuration NewLiveSession gives its shards.
func (w *mirror) analyzerConfig() core.AnalyzerConfig {
	return core.AnalyzerConfig{Label: w.label, LinkType: pcap.LinkTypeRaw, DefaultWindowToSpan: true, FramesStable: true}
}

// options are the live session's engine options on the serial path.
func (w *mirror) options() (core.Options, error) {
	runner, err := pipeline.NewRunner(daemonConfig(w.label, "drop"), nil)
	if err != nil {
		return core.Options{}, err
	}
	opts := runner.Options()
	opts.Workers, opts.EvictIdle = 1, 0
	return opts, nil
}

// pointKey is a point's verdict content: the accounting and the wall
// clock stamp are the run's, not the analysis's.
func pointKey(p trend.Point) (string, error) {
	p.Time, p.Reason, p.Fed, p.Analyzed, p.Dropped = time.Time{}, "", 0, 0, 0
	b, err := json.Marshal(p)
	return string(b), err
}

// setup generates the mirror capture, writes it as a pcap file and
// reads it back (the replay tool's path), and runs it through a serial
// Analyzer for the reference point.
func (w *mirror) setup(seed uint64) error {
	sp := w.l.begin("trace.generate", -1, "setup")
	capt, err := trace.Generate(trace.CaptureConfig{
		App: appsim.GoogleMeet, Network: appsim.WiFiP2P, Seed: seed, Start: benchStart,
		CallDuration: w.size.call, PrePost: w.size.prePost, MediaRate: w.size.mediaRate,
		Background: true, BackgroundBulk: w.size.bulk,
	})
	w.l.end(sp, 1)
	if err != nil {
		return err
	}
	f, err := os.Create(w.path)
	if err != nil {
		return err
	}
	// The pcap writer issues two writes per frame; buffering them keeps
	// setup_s from timing system calls.
	bw := bufio.NewWriter(f)
	if err := capt.WritePCAP(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sp = w.l.begin("pcap.read", -1, "setup")
	w.frames, err = readFrames(w.path)
	w.l.end(sp, len(w.frames))
	if err != nil {
		return err
	}
	opts, err := w.options()
	if err != nil {
		return err
	}
	w.refCA, err = serialEpoch(nil, "", w.analyzerConfig(), opts, w.frames)
	if err != nil {
		return err
	}
	w.ref = pipeline.Point(verdictTime, "epoch", w.refCA, pipeline.Accounting{})
	w.refKey, err = pointKey(w.ref)
	return err
}

// mismatch compares a closed epoch's point with the serial reference.
// An epoch that shed nothing must match it exactly. One that shed
// frames may differ only as the shedding explains: every frame fed was
// analyzed or dropped, and every datagram missing from its point is
// matched by a dropped frame.
func (w *mirror) mismatch(p trend.Point) (bool, error) {
	if p.Dropped == 0 {
		key, err := pointKey(p)
		return key != w.refKey, err
	}
	explained := p.Fed == uint64(len(w.frames)) && p.Analyzed+p.Dropped == p.Fed &&
		p.Datagrams <= w.ref.Datagrams && uint64(w.ref.Datagrams-p.Datagrams) <= p.Dropped
	return !explained, nil
}

// serialEpoch analyzes one epoch's frames with one serial Analyzer fed
// in 64-frame batches, recording the feed and Close on l.
func serialEpoch(l *lane, unit string, acfg core.AnalyzerConfig, opts core.Options, frames []pcap.Packet) (*core.CaptureAnalysis, error) {
	sp := l.begin("core.feed", -1, unit)
	a, err := core.NewAnalyzer(acfg, opts)
	if err != nil {
		return nil, err
	}
	batch := make([]core.Datagram, 0, replayBatch)
	for off := 0; off < len(frames); off += replayBatch {
		batch = batch[:0]
		for _, f := range frames[off:min(off+replayBatch, len(frames))] {
			batch = append(batch, core.Datagram{Timestamp: f.Timestamp, Frame: f.Data})
		}
		if err := a.FeedBatch(batch); err != nil {
			return nil, err
		}
	}
	l.end(sp, len(frames))
	sp = l.begin("core.close", -1, unit)
	ca, err := a.Close()
	l.end(sp, 1)
	return ca, err
}

// mergeEpoch routes one epoch's frames onto shards the way the ingest
// router does (flow fingerprint, decoded fallback, round-robin for
// frames without a flow), feeds each shard with the capture-global
// sequence, and times core.MergeAnalyzers on l.
func mergeEpoch(l *lane, unit string, acfg core.AnalyzerConfig, opts core.Options, shards int, frames []pcap.Packet) (*core.CaptureAnalysis, error) {
	acfg.ExternalSeq = true
	as := make([]*core.Analyzer, shards)
	batches := make([][]core.Datagram, shards)
	for i := range as {
		a, err := core.NewAnalyzer(acfg, opts)
		if err != nil {
			return nil, err
		}
		as[i] = a
	}
	var pkt layers.Packet
	for i, f := range frames {
		seq := uint64(i + 1)
		fp, ok := layers.FlowFingerprint(acfg.LinkType, f.Data)
		if !ok && layers.DecodeInto(&pkt, acfg.LinkType, f.Data) == nil {
			fp, ok = layers.FingerprintPacket(&pkt)
		}
		k := seq % uint64(shards)
		if ok {
			k = fp % uint64(shards)
		}
		batches[k] = append(batches[k], core.Datagram{Timestamp: f.Timestamp, Frame: f.Data, Seq: seq})
	}
	for i, a := range as {
		if err := a.FeedBatch(batches[i]); err != nil {
			return nil, err
		}
	}
	sp := l.begin("ingest.merge", -1, unit)
	ca, err := core.MergeAnalyzers(as)
	l.end(sp, 1)
	return ca, err
}

// closing is one finished epoch handed to the closer, with the time its
// last step was due.
type closing struct {
	sess   *pipeline.LiveSession
	unit   string
	due    time.Time
	traced bool
}

// closed is the closer's record of one epoch.
type closed struct {
	ms      float64
	heap    float64
	traced  bool
	acct    pipeline.Accounting
	bad     bool
	stats   *report.AppStats
	alerted int
}

// mirrorCycles is how many times a run alternates a closed-loop phase
// with an open-loop one. On a shared host the speed of concurrent code
// drifts over seconds; alternating lets both phases sample the whole
// run instead of one spell each.
const mirrorCycles = 4

// closedLoopShare is the share of each cycle spent on the closed-loop
// phase, which measures the rate the daemon path sustains.
const closedLoopShare = 0.15

// closedLoop pushes whole epochs into lossless (block policy) live
// sessions of d as fast as they accept them and closes each as the
// daemon does, one after another, until the deadline. Each record's ms
// is the epoch's wall time from its first push to its alerts evaluated.
func (w *mirror) closedLoop(o options, d *daemon, hs *heapSampler, until time.Time) ([]closed, error) {
	var out []closed
	for e := 0; e < o.minUnits() || time.Now().Before(until); e++ {
		u0 := time.Now()
		sess, err := d.runner.NewLiveSession()
		if err != nil {
			return nil, err
		}
		for _, f := range w.frames {
			if err := sess.Push(f); err != nil {
				sess.Close()
				return nil, err
			}
		}
		ep, err := d.closeEpoch(sess, nil, "")
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(u0)) / 1e6
		bad, err := w.mismatch(ep.point)
		if err != nil {
			return nil, err
		}
		// The block policy sheds nothing, so the point must match exactly.
		out = append(out, closed{ms: ms, heap: hs.take(), acct: ep.acct, bad: bad || ep.acct.Dropped > 0})
	}
	return out, nil
}

// closeQueue is how many finished epochs may wait for the closer: one
// being closed and one queued. A third blocks the generator, which then
// runs late, so a closer that cannot keep up shows in the lateness.
const closeQueue = 2

// openPhase is what one open-loop phase needs besides the workload:
// the drop-policy daemon, the epoch counter shared across phases (odd
// epochs are traced in a traced run), and the lanes traced epochs
// record on.
type openPhase struct {
	d                  *daemon
	epoch              int
	genLane, closeLane *lane
}

// openLoop pushes epochs into live sessions of the drop-policy daemon on
// a fixed schedule while a closer goroutine closes the finished ones in
// order, until the deadline. Each record's ms runs from when the epoch's
// last step was due to its alerts evaluated; obs collects what the
// generator saw on untraced epochs.
func (w *mirror) openLoop(o options, ph *openPhase, hs *heapSampler, until time.Time, obs *openLoop) ([]closed, error) {
	closeCh := make(chan closing, closeQueue)
	var results []closed
	var closeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := range closeCh {
			if closeErr != nil {
				c.sess.Close()
				continue
			}
			l := ph.closeLane
			if !c.traced {
				l = nil
			}
			e, err := ph.d.closeEpoch(c.sess, l, c.unit)
			if err != nil {
				closeErr = err
				continue
			}
			ms := float64(time.Since(c.due)) / 1e6
			bad, err := w.mismatch(e.point)
			if err != nil {
				closeErr = err
				continue
			}
			results = append(results, closed{
				ms: ms, heap: hs.take(), traced: c.traced, acct: e.acct,
				bad: bad, stats: e.ca.Stats, alerted: e.events,
			})
		}
	}()

	p := &pacer{start: time.Now(), rate: offeredRate}
	var genErr error
	for e := 0; e < o.minUnits() || time.Now().Before(until); e++ {
		traced := o.traced && ph.epoch%2 == 1
		l, ob := ph.genLane, (*openLoop)(nil)
		if !traced {
			l, ob = nil, obs
		}
		sess, err := ph.d.runner.NewLiveSession()
		if err != nil {
			genErr = err
			break
		}
		unit := fmt.Sprintf("epoch-%d", ph.epoch)
		ph.epoch++
		due, err := p.push(sess, w.frames, liveShards(), l, unit, ob)
		if err != nil {
			sess.Close()
			genErr = err
			break
		}
		closeCh <- closing{sess: sess, unit: unit, due: due, traced: traced}
	}
	close(closeCh)
	wg.Wait()
	if genErr != nil {
		return nil, genErr
	}
	return results, closeErr
}

func runMirrorEpochs(o options, r *run) error {
	w := &mirror{
		size:  mirrorSizes(o),
		label: string(appsim.GoogleMeet),
		path:  filepath.Join(o.dir, "mirror-epochs.pcap"),
	}
	base := time.Now()
	ph := &openPhase{}
	var setup *lane
	if o.traced {
		ph.genLane, ph.closeLane, setup = newLane(base), newLane(base), newLane(base)
		w.l = setup
	}
	setupS, err := timeSetup(o.setupReps(), func() error { return w.setup(o.seed) })
	if err != nil {
		return err
	}
	r.notef("input: %s %s call %v + %d bulk segments, %d frames per epoch",
		w.label, appsim.WiFiP2P, w.size.call, w.size.bulk, len(w.frames))
	r.notef("load: open loop, offered %d frames/s, %d shards, policy drop, epoch %.0f ms",
		offeredRate, liveShards(), float64(len(w.frames))/offeredRate*1e3)

	block, err := newDaemon(w.label, "block", filepath.Join(o.dir, "mirror-epochs-closed-trend.jsonl"))
	if err != nil {
		return err
	}
	defer block.close()
	if ph.d, err = newDaemon(w.label, "drop", filepath.Join(o.dir, "mirror-epochs-trend.jsonl")); err != nil {
		return err
	}
	defer ph.d.close()

	// Untraced runs alternate a closed-loop phase, which measures the
	// sustained rate, with the fixed open-loop load; traced runs measure
	// the open loop only.
	hs := startHeapSampler()
	defer hs.close()
	var capped, results []closed
	var obs openLoop
	cycles := mirrorCycles
	if o.small {
		cycles = 1
	}
	cycle := o.duration() / time.Duration(cycles)
	cpu0, t0 := cpuTime(), time.Now()
	for c := 0; c < cycles; c++ {
		start := t0.Add(time.Duration(c) * cycle)
		if !o.traced {
			cr, err := w.closedLoop(o, block, hs, start.Add(time.Duration(closedLoopShare*float64(cycle))))
			if err != nil {
				return err
			}
			capped = append(capped, cr...)
		}
		or, err := w.openLoop(o, ph, hs, start.Add(cycle), &obs)
		if err != nil {
			return err
		}
		results = append(results, or...)
	}
	cpu := cpuTime() - cpu0
	for _, d := range []*daemon{block, ph.d} {
		if err := d.close(); err != nil {
			return err
		}
	}
	var capMs []float64
	for _, c := range capped {
		capMs = append(capMs, c.ms)
	}
	sustained := ratio(float64(len(w.frames)), median(capMs)/1e3)
	if !o.traced {
		r.notef("sustained: %.0f frames/s closed loop over %d epochs, policy block; epoch ms p10 %.2f p50 %.2f p90 %.2f",
			sustained, len(capMs), quantile(capMs, 0.1), median(capMs), quantile(capMs, 0.9))
		r.notef("load: offered/sustained = %.3f", offeredRate/sustained)
	}

	var lat, latTraced, heaps []float64
	var total, all pipeline.Accounting
	var pipelineStats *report.AppStats
	shed, alerts := 0, 0
	for _, c := range capped {
		r.Attempted++
		if c.bad {
			r.Failed++
		}
		all.Add(c.acct)
		heaps = append(heaps, c.heap)
	}
	for _, c := range results {
		r.Attempted++
		if c.bad {
			r.Failed++
		}
		if c.acct.Dropped > 0 {
			shed++
		} else if pipelineStats == nil {
			pipelineStats = c.stats
		}
		total.Add(c.acct)
		all.Add(c.acct)
		alerts += c.alerted
		heaps = append(heaps, c.heap)
		if c.traced {
			latTraced = append(latTraced, c.ms)
		} else {
			lat = append(lat, c.ms)
		}
	}
	r.notef("output_mismatches: %d of %d epochs (trend point vs a serial Analyzer on the same frames; %d open-loop epochs shed frames and were held to what the shed frames explain)", r.Failed, r.Attempted, shed)
	r.notef("alerts: %d transitions", alerts)
	r.notef("epoch_close_ms: p50 %.3f p90 %.3f (last step due to trend point persisted and alerts evaluated; reported as e2e_ms)", median(lat), quantile(lat, 0.9))
	r.notef("shed_ratio: %.6f (%d of %d frames dropped)", ratio(total.Dropped, total.Fed), total.Dropped, total.Fed)
	r.notef("push_late_ms.p99: %.3f over %d steps", quantile(obs.late, 0.99), len(obs.late))

	if !o.traced {
		setEndToEnd(r, setupS, lat, sustained, cpu, int(all.Fed), heaps)
		return nil
	}

	// Replay one epoch: the serial Analyzer the shards stand in for, the
	// layers inside it, and the shard merge.
	opts, err := w.options()
	if err != nil {
		return err
	}
	replay := newLane(base)
	var counts replayCounts
	if _, err := serialEpoch(replay, "replay", w.analyzerConfig(), opts, w.frames); err != nil {
		return err
	}
	stats := replayLayers(replay, "replay", w.label, w.frames, pcap.LinkTypeRaw, time.Time{}, time.Time{}, true, &counts)
	if pipelineStats == nil {
		// Every epoch shed frames; the reference stands in for the
		// pipeline, which matched it wherever nothing was shed.
		pipelineStats = w.refCA.Stats
	}
	replayErr := diffStats(pipelineStats, stats)
	ca, err := mergeEpoch(replay, "replay", w.analyzerConfig(), opts, liveShards(), w.frames)
	if err != nil {
		return err
	}
	key, err := pointKey(pipeline.Point(verdictTime, "epoch", ca, pipeline.Accounting{}))
	if err != nil {
		return err
	}
	if key != w.refKey && replayErr == nil {
		replayErr = errors.New("merged shards differ from the serial reference")
	}
	// The daemon renders no report; rendering one for this epoch's
	// verdicts lets the layer read on every workload.
	side := newLane(base)
	sp := side.begin("report.render", -1, "replay")
	captureReport(w.refCA)
	side.end(sp, 1)
	ul := newLedger(ph.closeLane)
	return finishTrace(r, o, []*lane{ph.genLane, ph.closeLane}, len(latTraced), replay, 1, []*lane{setup, side}, traceInputs{
		counts:     counts,
		closeSpan:  "pipeline.close",
		closeShare: ratio(ul.get("pipeline.close").Total, ul.get("bench.epoch_close").Total),
		overhead:   overheadShare(latTraced, lat),
		loop:       obs,
		acct:       total,
	}, replayErr)
}
