package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	"github.com/rtc-compliance/rtcc/internal/report"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// writeCapture generates one seeded 5 s call of app on network and
// writes it to dir as a pcap, returning the file name and the call.
func writeCapture(t *testing.T, dir string, app appsim.App, network appsim.Network) (string, *trace.Capture) {
	t.Helper()
	capt, err := trace.Generate(trace.CaptureConfig{
		App: app, Network: network, Seed: 11,
		Start:        time.Date(2025, 3, 1, 12, 0, 0, 0, time.UTC),
		CallDuration: 5 * time.Second, PrePost: 2 * time.Second,
		MediaRate: 15, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%s_%s.pcap", app, network)
	writePCAP(t, filepath.Join(dir, name), capt)
	return name, capt
}

// runOutput runs rtccheck with args, as main does from the parsed
// flags on, and returns what it writes to standard output.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	c := newFlags()
	if err := c.fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := c.pipelineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if *c.manifest != "" {
		cfg.Source.Kind = pipeline.SourcePCAP
		cfg.Source.Path = *c.manifest
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	runner, err := pipeline.NewRunner(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	var out bytes.Buffer
	if *c.manifest != "" {
		err = runManifest(&out, *c.manifest, c, runner)
	} else {
		err = runOne(&out, c, cfg, runner)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestJSONReportDeterministic renders a FaceTime P2P capture's -json
// report repeatedly at one and at four shards: every rendering must be
// byte-identical, and each non-compliant type's reason must be its most
// frequent one, ties going to the lexically smallest. Several of the
// capture's RTP types carry more than one reason (three undefined
// header-extension profiles), so a reason picked in map order differs
// from run to run.
func TestJSONReportDeterministic(t *testing.T) {
	dir := t.TempDir()
	name, _ := writeCapture(t, dir, appsim.FaceTime, appsim.WiFiP2P)
	path := filepath.Join(dir, name)
	var want string
	for _, shards := range []int{1, 4} {
		for run := 0; run < 5; run++ {
			out := runOutput(t, "-pcap", path, "-json", "-shards", fmt.Sprint(shards))
			if want == "" {
				want = out
			} else if out != want {
				t.Fatalf("-shards %d run %d: -json output differs from the first rendering", shards, run)
			}
		}
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(want), &rep); err != nil {
		t.Fatal(err)
	}
	ca, err := analyzeArgs(t, "-pcap", path)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]*report.TypeStat)
	for key, ts := range ca.Stats.Types {
		byKey[key.Protocol.String()+" "+key.Label] = ts
	}
	multi := 0
	for _, jt := range rep.Types {
		ts := byKey[jt.Protocol+" "+jt.Label]
		if ts == nil {
			t.Fatalf("type %s %s is not in the analysis", jt.Protocol, jt.Label)
		}
		if len(ts.Reasons) > 1 {
			multi++
		}
		if got, top := jt.Reason, mostFrequent(ts.Reasons); got != top {
			t.Errorf("type %s %s: reason %q, want the most frequent %q (of %v)", jt.Protocol, jt.Label, got, top, ts.Reasons)
		}
	}
	if multi == 0 {
		t.Fatal("no type carries several reasons; the check is vacuous")
	}
}

// mostFrequent is the reason a report names: the highest count, ties
// to the lexically smallest.
func mostFrequent(reasons map[string]int) string {
	var rs []string
	for r := range reasons {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool {
		if reasons[rs[i]] != reasons[rs[j]] {
			return reasons[rs[i]] > reasons[rs[j]]
		}
		return rs[i] < rs[j]
	})
	if len(rs) == 0 {
		return ""
	}
	return rs[0]
}

// TestManifestHonoursReportSink pins that -manifest renders each
// capture's report the way -pcap does: -json writes one JSON object
// per capture, `sinks.report: none` writes no report, and the default
// text report keeps its per-capture header.
func TestManifestHonoursReportSink(t *testing.T) {
	dir := t.TempDir()
	var entries []manifestEntry
	for _, app := range []appsim.App{appsim.FaceTime, appsim.Discord} {
		name, capt := writeCapture(t, dir, app, appsim.WiFiRelay)
		entries = append(entries, manifestEntry{File: name, App: string(app), CallStart: capt.CallStart, CallEnd: capt.CallEnd})
	}
	manifest := filepath.Join(dir, "manifest.json")
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	dec := json.NewDecoder(strings.NewReader(runOutput(t, "-manifest", manifest, "-json")))
	for i, e := range entries {
		var rep jsonReport
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("-manifest -json: report %d: %v", i, err)
		}
		if want := e.App + " (" + e.File + ")"; rep.Label != want {
			t.Errorf("-manifest -json: report %d is labelled %q, want %q", i, rep.Label, want)
		}
		if len(rep.Types) == 0 {
			t.Errorf("-manifest -json: report %d lists no message types", i)
		}
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		t.Errorf("-manifest -json: output continues past the %d reports (%v)", len(entries), err)
	}

	config := filepath.Join(dir, "none.yaml")
	if err := os.WriteFile(config, []byte("sinks:\n  report: none\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runOutput(t, "-manifest", manifest, "-config", config); out != "" {
		t.Errorf("-manifest with sinks.report none printed:\n%s", out)
	}

	text := runOutput(t, "-manifest", manifest)
	for _, e := range entries {
		if header := fmt.Sprintf("=== %s (%s) ===\npipeline: ", e.File, e.App); !strings.Contains(text, header) {
			t.Errorf("-manifest text report lacks %q", header)
		}
	}
}
