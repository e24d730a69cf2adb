package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// TestRunnerPCAPNeverSheds: a file reader can always wait, so a pcap
// source never drops a datagram. The drop policy is rejected before
// anything is read, and the sharded runs (the per-CPU default and an
// explicit 4) analyze every frame into the serial Analyzer's result.
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
	for _, shards := range []int{0, 4} {
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
