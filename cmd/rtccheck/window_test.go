package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// TestLoneEndBound pins a lone -end: the start defaults to the
// capture's, so an end inside the capture narrows the window the
// report judges, and an end before the capture is an inverted window.
func TestLoneEndBound(t *testing.T) {
	capt, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Zoom, Network: appsim.WiFiRelay, Seed: 11,
		Start:        time.Date(2025, 3, 1, 12, 0, 0, 0, time.UTC),
		CallDuration: 4 * time.Second, PrePost: 2 * time.Second,
		MediaRate: 15, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "zoom.pcap")
	writePCAP(t, path, capt)
	full, err := analyzeArgs(t, "-pcap", path)
	if err != nil {
		t.Fatal(err)
	}
	// One second into the 4 s call: with the filter's 2 s slack the
	// media streams now end outside the window.
	inside, err := analyzeArgs(t, "-pcap", path, "-end", capt.CallStart.Add(time.Second).Format(time.RFC3339))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(inside.Filter, full.Filter) {
		t.Error("-end inside the capture left the filter result unchanged")
	}
	if _, err := analyzeArgs(t, "-pcap", path, "-end", "2000-01-01T00:00:00Z"); err == nil || !strings.Contains(err.Error(), "end precedes start") {
		t.Errorf("-end before the capture: error %v, want an inverted window", err)
	}
}

// analyzeArgs analyzes the capture as rtccheck with args does.
func analyzeArgs(t *testing.T, args ...string) (*core.CaptureAnalysis, error) {
	t.Helper()
	c := newFlags()
	if err := c.fs.Parse(args); err != nil {
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
	return runner.RunOnce()
}
