package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// TestRunnerPCAPNeverSheds: a file reader can always wait, so a pcap
// source never drops a datagram. The drop policy is rejected before
// anything is read, and the runs on the per-CPU default, one inline
// shard and an explicit 4 analyze every frame into the serial
// Analyzer's result.
func TestRunnerPCAPNeverSheds(t *testing.T) {
	frames := testFrames(t, 5)
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeRaw)
	for _, f := range frames {
		if err := w.WritePacket(f); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "call.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	serial, err := core.AnalyzePCAP(bytes.NewReader(buf.Bytes()), "call.pcap", time.Time{}, time.Time{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Source: Source{Kind: SourcePCAP, Path: path}}
	cfg.Exec = Exec{Shards: 4, Policy: "drop"}
	if _, err := NewRunner(cfg, nil); err == nil || !strings.Contains(err.Error(), `exec.policy "drop"`) {
		t.Fatalf("want the drop policy rejected for a pcap source, got %v", err)
	}
	for _, shards := range []int{0, 1, 4} {
		cfg.Exec = Exec{Shards: shards}
		reg := metrics.NewRegistry()
		r, err := NewRunner(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := r.RunOnce()
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("core_frames_total", metrics.L("app", "call.pcap")).Value(); got != uint64(len(frames)) {
			t.Errorf("shards %d: analyzed %d frames, want all %d", shards, got, len(frames))
		}
		if !reflect.DeepEqual(ca, serial) {
			t.Errorf("shards %d: analysis differs from the serial Analyzer", shards)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunnerEvictionMatchesSerial: with exec.evict_idle and no shard
// count the Runner evicts on one shard, so the result, the eviction
// counter and the JSONL trace are the serial Analyzer's, whatever the
// CPU count. The capture's background streams go idle often: it evicts
// 46 times on one shard, and would evict 29 times on two and 22 on four
// shards' clocks.
func TestRunnerEvictionMatchesSerial(t *testing.T) {
	const evict = 30 * time.Millisecond
	capt, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Zoom, Network: appsim.WiFiRelay, Seed: 5,
		Start:        time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
		CallDuration: 6 * time.Second, PrePost: time.Second,
		MediaRate: 25, Burst: true, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := capt.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "call.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	evicted := func(reg *metrics.Registry) uint64 {
		return reg.Counter("core_evicted_streams_total", metrics.L("app", "call.pcap")).Value()
	}

	serialReg := metrics.NewRegistry()
	var serialTrace bytes.Buffer
	w := obs.NewJSONLWriter(&serialTrace)
	serial, err := core.AnalyzePCAP(bytes.NewReader(buf.Bytes()), "call.pcap", time.Time{}, time.Time{},
		core.Options{EvictIdle: evict, Metrics: serialReg, Tracer: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if evicted(serialReg) == 0 {
		t.Fatal("the capture evicts nothing at 30ms; the comparison would be vacuous")
	}

	reg := metrics.NewRegistry()
	cfg := Config{
		Source: Source{Kind: SourcePCAP, Path: path},
		Exec:   Exec{EvictIdle: Duration(evict)},
		Sinks:  Sinks{TraceOut: filepath.Join(dir, "trace.jsonl")},
	}
	r, err := NewRunner(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := r.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ca, serial) {
		t.Error("analysis differs from the serial Analyzer")
	}
	if got, want := evicted(reg), evicted(serialReg); got != want {
		t.Errorf("core_evicted_streams_total = %d, want the serial %d", got, want)
	}
	got, err := os.ReadFile(cfg.Sinks.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialTrace.Bytes()) {
		t.Errorf("trace differs from the serial Analyzer's (%d vs %d bytes)", len(got), serialTrace.Len())
	}
}
