// Command rtcbench measures the analyzer's hot-path throughput over
// the internal/bench scenario matrix — every ingestion mode (pooled
// FeedBatch, in-memory batch, sharded ingest) over the relay, P2P, and
// media-heavy synthetic captures — and writes
// or checks a machine-readable baseline.
//
// Usage:
//
//	rtcbench                                  # print the matrix
//	rtcbench -out BENCH_hotpath.json          # write a baseline
//	rtcbench -baseline BENCH_hotpath.json     # regression gate (CI)
//
// Ingest time is the Feed/FeedBatch loop, which runs DPI pass 1 over
// every 64-datagram batch a stream fills; Close, with pass 2 and pass
// 1's tails, is untimed. BENCH_hotpath.json's ns/op rows predate pass
// 1 moving into the feed, so its media-heavy cells read several times
// their recorded ingest time; off the recording host that is a
// warning, and the rows are re-recorded with the timing gate's redo.
//
// With -baseline, rtcbench exits non-zero when any scenario regresses
// against the committed baseline: ingest time more than 15% slower,
// allocations up beyond measurement jitter, or bytes allocated more
// than 5% up. Each scenario runs
// best-of-N repetitions (-reps) so a noisy neighbor on the CI machine
// reads as a slow repetition that gets discarded, not a regression;
// scenarios that still look regressed are re-measured (up to twice,
// at double the repetition budget) before the gate fails, because
// interference is one-sided — only a real regression survives every
// retry.
//
// The baseline records the host it was measured on. When the current
// machine differs (CPU model, core count, or GOMAXPROCS), timing
// comparisons are demoted to warnings — cross-host wall-clock deltas
// are hardware facts, not regressions — while the allocation gates
// stay hard, since allocs/op and B/op are host-independent.
//
// On hosts with 4 or more CPUs, the gate additionally requires the
// sharded tier to scale: sharded4/media-heavy must reach at least 3x
// the throughput of sharded1/media-heavy. Single-core hosts print the
// curve but skip the requirement (there is nothing to scale onto).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bench"
	"github.com/rtc-compliance/rtcc/internal/cmdutil"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
)

// nsTolerance is the relative ingest-time slowdown tolerated before a
// scenario counts as regressed. 15% sits well above run-to-run jitter
// once best-of-N has discarded interference, and well below the ~2x
// cost of reintroducing a per-packet heap allocation.
const nsTolerance = 0.15

// allocTolerance absorbs allocation-count jitter from runtime
// internals (map growth, pool refill timing) without letting a real
// per-packet allocation through: even one alloc per packet moves
// allocs/op by thousands on these captures.
const allocTolerance = 0.02
const allocSlack = 64

// bytesTolerance is the relative B/op growth tolerated over a row that
// holds the cell's maximum over GOMAXPROCS 1, 2 and 4 (B/op moves a few
// percent between those), while a buffer that grows with the capture
// moves it by tens of percent without adding allocations.
const bytesTolerance = 0.05

// scalingFloor is the minimum sharded4:sharded1 throughput ratio on
// the media-heavy load, enforced on hosts with at least scalingMinCPU
// CPUs. 3x at 4 shards tolerates the router's serial share (Amdahl)
// while still catching a tier that serializes.
const scalingFloor = 3.0
const scalingMinCPU = 4

// newFlags registers rtcbench's flag surface (pinned by the golden
// surface test).
func newFlags() (fs *flag.FlagSet, out, baseline *string, reps, minIters *int,
	minTime *time.Duration, version *bool) {
	fs = flag.NewFlagSet("rtcbench", flag.ExitOnError)
	out = fs.String("out", "", "write results as JSON to this file")
	baseline = fs.String("baseline", "", "compare against this baseline JSON and exit 1 on regression")
	reps = fs.Int("reps", 3, "repetitions per scenario; the fastest is kept")
	minIters = fs.Int("miniters", 3, "minimum iterations per repetition")
	// 200ms of accumulated ingest per repetition: ingest per
	// iteration runs 0.5-9ms across the matrix, so every cell still
	// gets tens of iterations while the full best-of-3 matrix —
	// whose wall clock is dominated by the untimed Close between
	// iterations — finishes in a couple of minutes instead of ten.
	minTime = fs.Duration("mintime", 200*time.Millisecond, "minimum measured ingest time per repetition")
	version = cmdutil.VersionFlag(fs)
	return
}

func main() {
	fs, out, baseline, reps, minIters, minTime, version := newFlags()
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	if *version {
		cmdutil.PrintVersion(os.Stdout, "rtcbench")
		return
	}

	host := bench.CurrentHost()
	var results []bench.Result
	scenarioByName := make(map[string]bench.Scenario)
	for _, sc := range bench.Scenarios() {
		scenarioByName[sc.Name] = sc
		p, err := bench.Prepare(sc)
		if err != nil {
			fatalf("prepare %s: %v", sc.Name, err)
		}
		res, err := bench.MeasureBest(p, *reps, *minIters, *minTime)
		if err != nil {
			fatalf("measure %s: %v", sc.Name, err)
		}
		results = append(results, res)
	}
	printTable(results)
	printScaling(results)

	if *out != "" {
		buf, err := json.MarshalIndent(bench.File{Host: host, Results: results}, "", "  ")
		if err != nil {
			fatalf("encode: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Printf("wrote %s (%d scenarios)\n", *out, len(results))
	}

	if *baseline != "" {
		base, baseHost, err := readBaseline(*baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		// Cross-host comparisons demote timing failures to warnings:
		// a different CPU's wall clock is a hardware fact. Allocation
		// regressions stay hard — allocs/op and B/op do not depend on
		// the host.
		sameHost := baseHost.Comparable(host)
		if !sameHost {
			fmt.Printf("warning: baseline host differs (%s, %d CPUs) from this host (%s, %d CPUs); timing regressions reported as warnings only\n",
				orUnknown(baseHost.CPUModel), baseHost.NumCPU, orUnknown(host.CPUModel), host.NumCPU)
		} else if baseHost.GoVersion != host.GoVersion {
			fmt.Printf("warning: baseline measured with %s, this run uses %s; timing still enforced\n",
				baseHost.GoVersion, host.GoVersion)
		}
		// Wall-clock interference is one-sided: a busy neighbor only
		// ever makes a repetition slower. So before declaring a
		// regression, re-measure just the suspect scenarios with an
		// escalated repetition budget — a real regression survives
		// every retry, a noise spike does not.
		regressed := compare(results, base, sameHost)
		for retry := 0; len(regressed) > 0 && retry < 2; retry++ {
			fmt.Printf("re-measuring %d suspect scenario(s) with %d reps\n",
				len(regressed), *reps*2)
			var again []bench.Result
			for _, r := range regressed {
				p, err := bench.Prepare(scenarioByName[r.Name])
				if err != nil {
					fatalf("prepare %s: %v", r.Name, err)
				}
				res, err := bench.MeasureBest(p, *reps*2, *minIters, *minTime)
				if err != nil {
					fatalf("measure %s: %v", r.Name, err)
				}
				again = append(again, res)
			}
			regressed = compare(again, base, sameHost)
		}
		if len(regressed) > 0 {
			fatalf("%d scenario(s) regressed against %s", len(regressed), *baseline)
		}
		if err := checkScaling(results); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("no regression against %s\n", *baseline)
	}
}

// readBaseline parses either baseline format: the current
// {host, results} object or the historical bare result array (whose
// host is unknown and therefore never comparable).
func readBaseline(path string) (map[string]bench.Result, bench.Host, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, bench.Host{}, err
	}
	var file bench.File
	if err := json.Unmarshal(buf, &file); err != nil {
		var list []bench.Result
		if err2 := json.Unmarshal(buf, &list); err2 != nil {
			return nil, bench.Host{}, fmt.Errorf("%s: %w", path, err)
		}
		file.Results = list
	}
	out := make(map[string]bench.Result, len(file.Results))
	for _, r := range file.Results {
		out[r.Name] = r
	}
	return out, file.Host, nil
}

// compare returns the scenarios that regressed. A missing baseline
// entry is informational, not a failure: new scenarios enter the
// baseline on the next -out run. With enforceTiming false (baseline
// from a different host), timing deltas warn instead of failing.
func compare(results []bench.Result, base map[string]bench.Result, enforceTiming bool) []bench.Result {
	var regressed []bench.Result
	for _, r := range results {
		b, ok := base[r.Name]
		if !ok {
			fmt.Printf("  %-24s no baseline entry (new scenario)\n", r.Name)
			continue
		}
		bad := false
		if r.NsPerOp > b.NsPerOp*(1+nsTolerance) {
			kind, fail := "REGRESSION", true
			if !enforceTiming {
				kind, fail = "warning (cross-host)", false
			}
			fmt.Printf("%s %-24s ingest %.2fms vs baseline %.2fms (>%.0f%% slower)\n",
				kind, r.Name, r.NsPerOp/1e6, b.NsPerOp/1e6, nsTolerance*100)
			bad = bad || fail
		}
		if r.AllocsPerOp > b.AllocsPerOp*(1+allocTolerance)+allocSlack {
			fmt.Printf("REGRESSION %-24s allocs/op %.0f vs baseline %.0f\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
			bad = true
		}
		if r.BytesPerOp > b.BytesPerOp*(1+bytesTolerance) {
			fmt.Printf("REGRESSION %-24s B/op %.0f vs baseline %.0f (>%.0f%% more)\n",
				r.Name, r.BytesPerOp, b.BytesPerOp, bytesTolerance*100)
			bad = true
		}
		if bad {
			regressed = append(regressed, r)
		}
	}
	return regressed
}

// scalingRatio extracts the sharded4:sharded1 media-heavy throughput
// ratio; ok is false when either cell is missing.
func scalingRatio(results []bench.Result) (float64, bool) {
	var one, four float64
	for _, r := range results {
		switch r.Name {
		case "sharded1/media-heavy":
			one = r.PktsPerSec
		case "sharded4/media-heavy":
			four = r.PktsPerSec
		}
	}
	if one <= 0 || four <= 0 {
		return 0, false
	}
	return four / one, true
}

// printScaling renders the shard-scaling curve after the main table.
func printScaling(results []bench.Result) {
	if ratio, ok := scalingRatio(results); ok {
		fmt.Printf("shard scaling (media-heavy): sharded4/sharded1 = %.2fx on %d CPU(s)\n",
			ratio, runtime.NumCPU())
	}
}

// checkScaling enforces the scaling floor on hosts parallel enough to
// measure it; smaller hosts report the curve and skip the gate.
func checkScaling(results []bench.Result) error {
	ratio, ok := scalingRatio(results)
	if !ok {
		return nil
	}
	if runtime.NumCPU() < scalingMinCPU {
		fmt.Printf("shard scaling gate skipped: %d CPU(s) < %d (nothing to scale onto)\n",
			runtime.NumCPU(), scalingMinCPU)
		return nil
	}
	if ratio < scalingFloor {
		return fmt.Errorf("shard scaling %.2fx below the %.1fx floor (sharded4 vs sharded1, media-heavy)", ratio, scalingFloor)
	}
	return nil
}

func printTable(results []bench.Result) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tpackets\tingest ms/op\tpkts/sec\tB/op\tallocs/op")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.0f\t%.0f\t%.0f\n",
			r.Name, r.Packets, r.NsPerOp/1e6, r.PktsPerSec, r.BytesPerOp, r.AllocsPerOp)
	}
	w.Flush()
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown CPU"
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rtcbench: "+format+"\n", args...)
	os.Exit(1)
}
