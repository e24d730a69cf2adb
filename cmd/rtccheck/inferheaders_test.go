package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// TestInferHeadersGolden pins -infer-headers output on a Zoom and a
// FaceTime relay capture generated from fixed seeds, at one and at four
// shards. Run with -update after an intentional change.
func TestInferHeadersGolden(t *testing.T) {
	dir := t.TempDir()
	var got strings.Builder
	for _, app := range []appsim.App{appsim.Zoom, appsim.FaceTime} {
		capt, err := trace.Generate(trace.CaptureConfig{
			App: app, Network: appsim.WiFiRelay, Seed: 11,
			Start:        time.Date(2025, 3, 1, 12, 0, 0, 0, time.UTC),
			CallDuration: 4 * time.Second, PrePost: 2 * time.Second,
			MediaRate: 15, Background: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, string(app)+".pcap")
		writePCAP(t, path, capt)
		var want string
		for _, shards := range []int{1, 4} {
			out := inferHeaders(t, path, shards)
			if shards == 1 {
				want = out
				fmt.Fprintf(&got, "=== %s ===\n%s", app, out)
			} else if out != want {
				t.Errorf("%s: -shards %d output differs from -shards 1\ngot:\n%s\nwant:\n%s", app, shards, out, want)
			}
		}
	}
	golden := filepath.Join("testdata", "inferheaders.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("-infer-headers output changed (run with -update if intentional)\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// inferHeaders analyzes path as `rtccheck -pcap path -infer-headers
// -shards n` does and returns the header-inference output.
func inferHeaders(t *testing.T, path string, shards int) string {
	t.Helper()
	c := newFlags()
	if err := c.fs.Parse([]string{"-pcap", path, "-infer-headers", "-shards", fmt.Sprint(shards)}); err != nil {
		t.Fatal(err)
	}
	cfg, err := c.pipelineConfig()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := pipeline.NewRunner(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start, end, err := cfg.Source.Window()
	if err != nil {
		t.Fatal(err)
	}
	ca, err := runner.AnalyzeReader(f, cfg.Source.EffectiveLabel(), start, end)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := printHeaderInference(&buf, path, ca, cfg.Analysis.MaxOffset); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func writePCAP(t *testing.T, path string, capt *trace.Capture) {
	t.Helper()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeRaw)
	for _, fr := range capt.Frames() {
		if err := w.WritePacket(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
