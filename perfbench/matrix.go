package main

import (
	"fmt"
	"time"

	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/report"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// paperMatrix is the paper-matrix workload's state.
type paperMatrix struct {
	mopts trace.MatrixOptions
	// refReport is the matrix rendered from a Workers: 1 run.
	refReport string
	frames    int
}

// options returns the engine options with the given worker count. QoE
// estimation is on, as on the daemon path, so every workload exercises
// the estimator; it never changes the tables.
func (w *paperMatrix) options(workers int) core.Options {
	return core.Options{Workers: workers, QoE: &qoe.Config{}}
}

// matrixReport renders the six tables and three figures.
func matrixReport(ma *core.MatrixAnalysis) string {
	return renderReport(ma.Aggregate, ma.Table1, ma.Findings)
}

// setup runs the serial reference matrix.
func (w *paperMatrix) setup() error {
	ma, err := core.RunMatrix(w.mopts, w.options(1))
	if err != nil {
		return err
	}
	w.refReport = matrixReport(ma)
	w.frames = 0
	for _, row := range ma.Table1 {
		w.frames += row.RawUDP.Packets + row.RawTCP.Packets
	}
	return nil
}

// matrixSize is the matrix shape: every app by every network, runs
// calls each. Short calls keep one matrix near 200 ms, so a run
// measures about a hundred matrices and its p90 has ten samples beyond
// it; two runs per cell average out how much one seed's calls differ
// from another's.
func matrixSize(o options) (runs int, call, prePost time.Duration) {
	if o.small {
		return 1, 5 * time.Second, 2 * time.Second
	}
	return 2, 3 * time.Second, 500 * time.Millisecond
}

func runPaperMatrix(o options, r *run) error {
	runs, call, prePost := matrixSize(o)
	w := &paperMatrix{mopts: trace.MatrixOptions{
		Runs: runs, CallDuration: call, PrePost: prePost,
		Start: benchStart, BaseSeed: o.seed, Background: true,
	}}
	setupS, err := timeSetup(o.setupReps(), w.setup)
	if err != nil {
		return err
	}
	r.notef("input: %d calls of %v (%d runs per app and network), %d frames", len(trace.Matrix(w.mopts)), call, runs, w.frames)

	var tr *lane
	if o.traced {
		tr = newLane(time.Now())
	}
	var lat, latTraced, heaps []float64
	var lastMA *core.MatrixAnalysis
	hs := startHeapSampler()
	defer hs.close()
	cpu0, t0 := cpuTime(), time.Now()
	for i := 0; i < o.minUnits() || time.Since(t0) < o.duration(); i++ {
		traced := o.traced && i%2 == 1
		l := tr
		if !traced {
			l = nil
		}
		unit := fmt.Sprintf("matrix-%d", i)
		hs.take()
		u0 := time.Now()
		root := l.begin("bench.matrix", -1, unit)
		sp := l.begin("core.run_matrix", root, unit)
		ma, err := core.RunMatrix(w.mopts, w.options(0))
		l.end(sp, 1)
		if err != nil {
			return err
		}
		sp = l.begin("report.render", root, unit)
		rep := matrixReport(ma)
		l.end(sp, 1)
		l.end(root, w.frames)
		ms := float64(time.Since(u0)) / 1e6
		heaps = append(heaps, hs.take())
		if traced {
			latTraced = append(latTraced, ms)
			lastMA = ma
		} else {
			lat = append(lat, ms)
		}
		r.Attempted++
		if rep != w.refReport {
			r.Failed++
		}
	}
	cpu := cpuTime() - cpu0
	r.notef("output_mismatches: %d of %d matrices (rendered tables vs the Workers: 1 reference)", r.Failed, r.Attempted)

	if !o.traced {
		setEndToEnd(r, setupS, lat, float64(w.frames)/(median(lat)/1e3), cpu, w.frames*len(lat), heaps)
		return nil
	}

	// Replay what RunMatrix does per call: generation, the Feed path
	// core.AnalyzeCapture takes, Close, and the layers inside them.
	replay := newLane(time.Now())
	var counts replayCounts
	perApp := make(map[string]*report.AppStats)
	for i, cfg := range trace.Matrix(w.mopts) {
		unit := fmt.Sprintf("call-%d", i)
		sp := replay.begin("trace.generate", -1, unit)
		capt, err := trace.Generate(cfg)
		replay.end(sp, 1)
		if err != nil {
			return err
		}
		in := capt.Input()
		sp = replay.begin("core.feed", -1, unit)
		a, err := core.NewAnalyzer(core.AnalyzerConfig{
			Label: in.Label, LinkType: in.LinkType,
			CallStart: in.CallStart, CallEnd: in.CallEnd,
			KeepPayloads: true, FramesStable: true,
		}, w.options(1))
		if err != nil {
			return err
		}
		for _, p := range in.Packets {
			if err := a.Feed(p.Timestamp, p.Data); err != nil {
				return err
			}
		}
		replay.end(sp, len(in.Packets))
		sp = replay.begin("core.close", -1, unit)
		_, err = a.Close()
		replay.end(sp, 1)
		if err != nil {
			return err
		}
		stats := replayLayers(replay, unit, in.Label, in.Packets, in.LinkType, in.CallStart, in.CallEnd, true, &counts)
		if perApp[in.Label] == nil {
			perApp[in.Label] = report.NewAppStats(in.Label)
		}
		addStats(perApp[in.Label], stats)
	}
	var replayErr error
	for _, app := range lastMA.Aggregate.Apps() {
		got := perApp[app.App]
		if got == nil {
			got = report.NewAppStats(app.App)
		}
		if err := diffStats(app, got); err != nil {
			replayErr = fmt.Errorf("%s: %w", app.App, err)
			break
		}
	}
	rl := newLedger(replay)
	work := rl.get("trace.generate").Total + rl.get("core.feed").Total + rl.get("core.close").Total
	return finishTrace(r, o, []*lane{tr}, len(latTraced), replay, 1, nil, traceInputs{
		counts:     counts,
		closeSpan:  "core.close",
		closeShare: ratio(rl.get("core.close").Total, work),
		overhead:   overheadShare(latTraced, lat),
	}, replayErr)
}
