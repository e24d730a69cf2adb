package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bench"
	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// benchStart anchors every generated capture, and verdictTime stamps
// every verdict line, so outputs compare byte for byte.
var (
	benchStart  = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	verdictTime = benchStart
)

// mediaCell is the capture shape of internal/bench's media-heavy cell
// (Zoom over a Wi-Fi relay, bursting senders at a high media rate), with
// the light background turned on and the call stretched to callLen.
func mediaCell(callLen time.Duration) (bench.Scenario, error) {
	for _, sc := range bench.Scenarios() {
		if sc.Mode == bench.ModeFeedBatch && strings.HasSuffix(sc.Name, "/media-heavy") {
			sc.Background = true
			sc.CallDuration = callLen
			return sc, nil
		}
	}
	return bench.Scenario{}, fmt.Errorf("internal/bench has no feedbatch media-heavy cell")
}

// pcapMedia is the pcap-media workload's state.
type pcapMedia struct {
	sc         bench.Scenario
	path       string
	start, end time.Time
	frames     int
	acct       pipeline.Accounting
	cfg        pipeline.Config
	// refLine and refReport are the serial reference's verdict line
	// (core.AnalyzePCAP with one worker) and rendered report.
	refLine   string
	refReport string
	// l records the setup's generation span (nil when untraced).
	l *lane
}

// setup generates the call, writes it as a pcap file, and computes the
// serial reference outputs.
func (w *pcapMedia) setup(seed uint64) error {
	sp := w.l.begin("trace.generate", -1, "setup")
	capt, err := trace.Generate(trace.CaptureConfig{
		App: w.sc.App, Network: w.sc.Network, Seed: seed, Start: benchStart,
		CallDuration: w.sc.CallDuration, PrePost: w.sc.PrePost,
		MediaRate: w.sc.MediaRate, Burst: w.sc.Burst, Background: w.sc.Background,
	})
	w.l.end(sp, 1)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := capt.WritePCAP(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(w.path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	w.start, w.end = capt.CallStart, capt.CallEnd
	w.frames = len(capt.Events)
	w.acct = pipeline.Accounting{Fed: uint64(w.frames), Analyzed: uint64(w.frames), Shards: 1}
	w.cfg.Source = pipeline.Source{
		Kind: pipeline.SourcePCAP, Path: w.path, Label: string(w.sc.App),
		Start: w.start.Format(time.RFC3339Nano), End: w.end.Format(time.RFC3339Nano),
	}
	plain, err := pipeline.NewRunner(w.cfg, nil)
	if err != nil {
		return err
	}
	opts := plain.Options()
	opts.Workers = 1
	ref, err := core.AnalyzePCAP(bytes.NewReader(buf.Bytes()), string(w.sc.App), w.start, w.end, opts)
	if err != nil {
		return err
	}
	line, err := json.Marshal(pipeline.Point(verdictTime, "capture", ref, w.acct))
	if err != nil {
		return err
	}
	w.refLine, w.refReport = string(line), captureReport(ref)
	return nil
}

// capture runs one capture through the pipeline as rtccheck does:
// Runner.RunOnce, the verdict line, the rendered report.
func (w *pcapMedia) capture(runner *pipeline.Runner) (*core.CaptureAnalysis, string, error) {
	ca, err := runner.RunOnce()
	if err != nil {
		return nil, "", err
	}
	if err := runner.WriteVerdict(verdictTime, "capture", ca, w.acct); err != nil {
		return nil, "", err
	}
	return ca, captureReport(ca), nil
}

// tracedCapture is capture with a span around every call into a
// module: the steps Runner.RunOnce takes for a serial pcap source (pcap
// reader, one Analyzer configured as core.AnalyzePCAP configures it,
// FeedBatch per 64 frames, Close), then the verdict and the report.
func (w *pcapMedia) tracedCapture(runner *pipeline.Runner, l *lane, unit string) (*core.CaptureAnalysis, string, error) {
	root := l.begin("bench.capture", -1, unit)
	sp := l.begin("pcap.read", root, unit)
	f, err := os.Open(w.path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	pr, err := pcap.NewReader(bufio.NewReader(f))
	l.end(sp, 0)
	if err != nil {
		return nil, "", err
	}
	sp = l.begin("core.feed", root, unit)
	a, err := core.NewAnalyzer(core.AnalyzerConfig{
		Label: string(w.sc.App), LinkType: pr.LinkType(),
		CallStart: w.start, CallEnd: w.end, DefaultWindowToSpan: true,
		Pool: bufpool.Global(),
	}, runner.Options())
	l.end(sp, 0)
	if err != nil {
		return nil, "", err
	}
	var bufs [replayBatch][]byte
	batch := make([]core.Datagram, 0, replayBatch)
	for eof := false; !eof; {
		sp := l.begin("pcap.read", root, unit)
		for len(batch) < replayBatch {
			pkt, err := pr.ReadPacketInto(&bufs[len(batch)])
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return nil, "", err
			}
			batch = append(batch, core.Datagram{Timestamp: pkt.Timestamp, Frame: pkt.Data})
		}
		l.end(sp, len(batch))
		if len(batch) == 0 {
			break
		}
		sp = l.begin("core.feed", root, unit)
		err := a.FeedBatch(batch)
		l.end(sp, len(batch))
		if err != nil {
			return nil, "", err
		}
		batch = batch[:0]
	}
	sp = l.begin("core.close", root, unit)
	ca, err := a.Close()
	l.end(sp, 1)
	if err != nil {
		return nil, "", err
	}
	sp = l.begin("pipeline.write_verdict", root, unit)
	err = runner.WriteVerdict(verdictTime, "capture", ca, w.acct)
	l.end(sp, 1)
	if err != nil {
		return nil, "", err
	}
	sp = l.begin("report.render", root, unit)
	rep := captureReport(ca)
	l.end(sp, 1)
	l.end(root, w.frames)
	return ca, rep, nil
}

// pcapMediaCall is the call length: long enough that Close's DPI sweep
// dominates, short enough that a run measures over a hundred captures,
// so its p90 has at least ten samples beyond it.
func pcapMediaCall(o options) time.Duration {
	if o.small {
		return 3 * time.Second
	}
	return 12 * time.Second
}

func runPCAPMedia(o options, r *run) error {
	sc, err := mediaCell(pcapMediaCall(o))
	if err != nil {
		return err
	}
	w := &pcapMedia{sc: sc, path: filepath.Join(o.dir, "pcap-media.pcap")}
	w.cfg.Analysis.QoE = true
	var tr, setup *lane
	if o.traced {
		base := time.Now()
		tr, setup = newLane(base), newLane(base)
		w.l = setup
	}
	setupS, err := timeSetup(o.setupReps(), func() error { return w.setup(o.seed) })
	if err != nil {
		return err
	}
	r.notef("input: %s %s call %v, %d frames", sc.App, sc.Network, sc.CallDuration, w.frames)

	verdicts := filepath.Join(o.dir, "pcap-media-verdicts.jsonl")
	w.cfg.Sinks.Verdicts = verdicts
	runner, err := pipeline.NewRunner(w.cfg, nil)
	if err != nil {
		return err
	}
	defer runner.Close()

	var lat, latTraced, heaps []float64
	var bad []bool
	var lastCA *core.CaptureAnalysis
	hs := startHeapSampler()
	defer hs.close()
	cpu0, t0 := cpuTime(), time.Now()
	for i := 0; i < o.minUnits() || time.Since(t0) < o.duration(); i++ {
		traced := o.traced && i%2 == 1
		hs.take()
		u0 := time.Now()
		var ca *core.CaptureAnalysis
		var rep string
		if traced {
			ca, rep, err = w.tracedCapture(runner, tr, fmt.Sprintf("capture-%d", i))
		} else {
			ca, rep, err = w.capture(runner)
		}
		if err != nil {
			return err
		}
		ms := float64(time.Since(u0)) / 1e6
		heaps = append(heaps, hs.take())
		if traced {
			latTraced = append(latTraced, ms)
			lastCA = ca
		} else {
			lat = append(lat, ms)
		}
		bad = append(bad, rep != w.refReport)
	}
	cpu := cpuTime() - cpu0
	if err := runner.Close(); err != nil {
		return err
	}
	if err := checkVerdicts(verdicts, w.refLine, bad); err != nil {
		return err
	}
	for _, b := range bad {
		if b {
			r.Failed++
		}
	}
	r.Attempted = len(bad)
	r.notef("output_mismatches: %d of %d captures (verdict line vs core.AnalyzePCAP, report vs the serial reference)", r.Failed, r.Attempted)

	if !o.traced {
		setEndToEnd(r, setupS, lat, float64(w.frames)/(median(lat)/1e3), cpu, w.frames*len(lat), heaps)
		return nil
	}

	// Replay the layers inside FeedBatch and Close on the same frames.
	frames, err := readFrames(w.path)
	if err != nil {
		return err
	}
	var counts replayCounts
	replay := newLane(time.Now())
	stats := replayLayers(replay, "replay", string(w.sc.App), frames, pcap.LinkTypeRaw, w.start, w.end, true, &counts)
	ul := newLedger(tr)
	return finishTrace(r, o, []*lane{tr}, len(latTraced), replay, 1, []*lane{setup}, traceInputs{
		counts:     counts,
		closeSpan:  "core.close",
		closeShare: ratio(ul.get("core.close").Total, ul.get("bench.capture").Total),
		overhead:   overheadShare(latTraced, lat),
	}, diffStats(lastCA.Stats, stats))
}

// readFrames loads every frame of a pcap file.
func readFrames(path string) ([]pcap.Packet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pr, err := pcap.NewReader(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	return pr.ReadAll()
}

// checkVerdicts compares each verdict line the runner wrote with the
// reference line, marking the units whose line differs or is missing.
func checkVerdicts(path, want string, bad []bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := range bad {
		if i >= len(lines) || lines[i] != want {
			bad[i] = true
		}
	}
	return nil
}
