// Command perfbench is the end-to-end compliance benchmark: capture
// bytes in, verdicts, report, and trend point out. It generates each
// workload's inputs from a seed, drives the pipeline through its public
// API for a fixed number of seconds, checks every output against the
// serial reference path, and prints one JSON result as the last line of
// its standard output.
//
// Workloads:
//
//   - pcap-media: a media-heavy Zoom Wi-Fi-relay call written as a pcap
//     file, analyzed by pipeline.Runner on the serial path (QoE and
//     findings on, Close fanned out per CPU), then Runner.WriteVerdict
//     and a rendered report. Closed loop: one capture after another.
//   - mirror-epochs: the daemon's analysis path in-process. A Meet P2P
//     call buried in bulk TCP and background flows is pushed on a fixed
//     schedule (open loop) into Runner.NewLiveSession with one shard per
//     CPU and the drop policy; each epoch runs Flush, Close,
//     pipeline.Point, trend.Store.Append on disk, and
//     alert.Engine.Observe on a compliance_drop rule.
//   - paper-matrix: the paper reproduction, core.RunMatrix over six apps
//     by three networks with background traffic, then the six tables and
//     three figures rendered. Closed loop: one matrix after another.
//
// With -trace 0 the run times the workload untraced and reports the
// end-to-end metrics. With -trace 1 it alternates traced and untraced
// units, records a span around every call the benchmark makes into a
// module, replays the layers that run inside Analyzer.Close (and the
// feed) through their public APIs on the same inputs, proves the
// replay reproduces the pipeline's verdict totals, and reports the
// per-layer ledger.
//
// Run it from the repository root through perfbench/run.sh, which
// builds this module and keeps every file it writes under .bench_build.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bench"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string
	// small shrinks every input and the setup repetitions, for the
	// package's own tests.
	small bool
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// setupReps is how many times a run sets up; setup_s is the median.
func (o options) setupReps() int {
	if o.small {
		return 1
	}
	return 5
}

// minUnits is the fewest units a run measures, however short its
// seconds.
func (o options) minUnits() int {
	if o.small {
		return 2
	}
	return 5
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one run's output: the result and the human-readable
// lines printed before it.
type run struct {
	result
	out *bufio.Writer
}

func (r *run) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "metric: %-32s %16.6f %s\n", name, v, unit)
}

func (r *run) notef(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

var workloads = map[string]func(options, *run) error{
	"pcap-media":    runPCAPMedia,
	"mirror-epochs": runMirrorEpochs,
	"paper-matrix":  runPaperMatrix,
}

// runOne executes one workload on one seed.
func runOne(o options, out *bufio.Writer) (result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (pcap-media, mirror-epochs, or paper-matrix)", o.workload)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	r := &run{result: result{Correct: true, Metrics: make(map[string]metric)}, out: out}
	host, err := json.Marshal(bench.CurrentHost())
	if err != nil {
		return result{}, err
	}
	r.notef("host: %s", host)
	r.notef("run: workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d", o.workload, o.seed, o.seconds, o.traced, runtime.GOMAXPROCS(0))
	if err := fn(o, r); err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	if r.Failed > 0 {
		r.Correct = false
	}
	return r.result, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: pcap-media, mirror-epochs, or paper-matrix")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	seed2 := flag.Uint64("seed2", 0, "second seed, measured after -seed and printed on its own line, to check a claim on a seed it was not tuned on (0: none)")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds each run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "workdir", ".bench_build/work", "directory for generated captures, verdicts, trend store, and span dumps")
	flag.Parse()
	o.traced = *trace == 1

	out := bufio.NewWriter(os.Stdout)
	fail := func(err error) {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := runOne(o, out)
	if err != nil {
		fail(err)
	}
	if *seed2 != 0 {
		o2 := o
		o2.seed = *seed2
		res2, err := runOne(o2, out)
		if err != nil {
			fail(err)
		}
		line, err := json.Marshal(res2)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "seed2 %d: %s\n", *seed2, line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
