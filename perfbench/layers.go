package main

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/rtc-compliance/rtcc/internal/pipeline"
)

// ratio divides, returning 0 for an empty base.
func ratio[T int | int64 | uint64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setEndToEnd reports the metrics every workload shares: setup time,
// per-unit latency (median and p90), frame rate, CPU per million
// frames, and the median per-unit heap peak.
func setEndToEnd(r *run, setupS float64, latMs []float64, pktsPerS float64, cpu time.Duration, frames int, heaps []float64) {
	r.set("setup_s", setupS, "s")
	r.set("e2e_ms.p50", median(latMs), "ms")
	r.set("e2e_ms.p90", quantile(latMs, 0.9), "ms")
	r.set("pkts_per_s", pktsPerS, "1/s")
	r.set("cpu_s_per_mpkt", ratio(cpu.Seconds(), float64(frames))*1e6, "s")
	r.set("heap_peak_mb", median(heaps), "MB")
	r.notef("samples: %d units, %d above p90", len(latMs), len(latMs)/10)
}

// traceInputs is what a traced run measured besides its spans.
type traceInputs struct {
	counts replayCounts
	// closeSpan names the call that closes the pipeline's analyzer, and
	// closeShare is its share of the unit's time.
	closeSpan  string
	closeShare float64
	// overhead is (traced - untraced) / untraced over the median unit.
	overhead float64
	// loop and acct are what mirror-epochs' open-loop generator observed
	// on its untraced epochs and the live sessions' ledger; the other
	// workloads leave them empty.
	loop openLoop
	acct pipeline.Accounting
}

// finishTrace folds a traced run's spans into the per-layer ledger,
// prints it with the layer carrying the largest self time, dumps the
// spans, and reports the per-layer metrics. units are the traced units'
// lanes (nUnits units); replay is the replay's lane, covering
// replayUnits units' worth of input; side holds spans (set-up, replays of layers
// the workload itself does not run) that feed the per-call metrics but
// not the per-unit ranking. A replay whose verdict totals differ from
// the pipeline's (replayErr) makes the layer numbers invalid: they are
// withheld and the run is marked incorrect.
func finishTrace(r *run, o options, units []*lane, nUnits int, replay *lane, replayUnits int, side []*lane, in traceInputs, replayErr error) error {
	all := append(append(append([]*lane(nil), units...), replay), side...)
	ul, rl, lg := newLedger(units...), newLedger(replay), newLedger(all...)
	per := perUnit(ul, nUnits, rl, replayUnits)
	printLedger(r.out, per, ul, rl)
	name, ns := topLayer(per)
	r.notef("top layer: %s (%.3f ms self per unit)", name, ns/1e6)
	if err := writeSpans(filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)), all...); err != nil {
		return err
	}
	if replayErr != nil {
		r.notef("replay: INVALID, layer numbers withheld: %v", replayErr)
		r.Correct = false
		return nil
	}
	r.notef("replay: verdict totals equal the pipeline's")

	c := in.counts
	r.set("dpi.finalize_ns_per_dgram", lg.perCount("dpi.finalize"), "ns")
	r.set("dpi.classified_share", ratio(c.classified, c.dgrams), "ratio")
	r.set("compliance.check_ns_per_msg", lg.perCount("compliance.check"), "ns")
	r.set("compliance.msgs_per_dgram", ratio(c.msgs, c.dgrams), "ratio")
	r.set("qoe.observe_ns_per_dgram", lg.perCount("qoe.observe"), "ns")
	feed := lg.get("core.feed")
	r.set("core.feed_ns_per_frame", lg.perCount("core.feed"), "ns")
	r.set("core.feed_allocs_per_frame", ratio(feed.Allocs, uint64(feed.Count)), "count")
	r.set("layers.decode_ns_per_frame", lg.perCount("layers.decode"), "ns")
	r.set("flow.add_ns_per_frame", lg.perCount("flow.add"), "ns")
	r.set("pcap.read_ns_per_frame", lg.perCount("pcap.read"), "ns")
	r.set("core.close_ms", lg.perCall(in.closeSpan)/1e6, "ms")
	r.set("core.close_share", in.closeShare, "ratio")
	r.set("filterpipe.run_ms_per_close", lg.perCall("filterpipe.run")/1e6, "ms")
	r.set("filterpipe.rtc_frame_share", ratio(c.rtcFrames, c.frames), "ratio")
	r.set("flow.streams_per_close", ratio(c.streams, c.closes), "count")
	r.set("ingest.route_ns_per_frame", lg.perCount("pipeline.push"), "ns")
	r.set("ingest.flush_ms", lg.perCall("pipeline.flush")/1e6, "ms")
	r.set("ingest.merge_ms", lg.perCall("ingest.merge")/1e6, "ms")
	r.set("ingest.backpressure_share", mean(in.loop.fill), "ratio")
	r.set("ingest.shed_ratio", ratio(in.acct.Dropped, in.acct.Fed), "ratio")
	r.set("bench.push_late_ms.p99", quantile(in.loop.late, 0.99), "ms")
	r.set("pipeline.point_us", lg.perCall("pipeline.point")/1e3, "us")
	r.set("trend.append_us", lg.perCall("trend.append")/1e3, "us")
	r.set("alert.observe_us", lg.perCall("alert.observe")/1e3, "us")
	r.set("trace.generate_ms_per_call", lg.perCall("trace.generate")/1e6, "ms")
	r.set("report.render_ms", lg.perCall("report.render")/1e6, "ms")
	r.set("bench.trace_overhead_share", in.overhead, "ratio")
	r.set("bench.unattributed_share", ul.unattributed(), "ratio")
	return nil
}

// overheadShare compares traced with untraced unit latencies.
func overheadShare(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return (median(traced) - u) / u
}
