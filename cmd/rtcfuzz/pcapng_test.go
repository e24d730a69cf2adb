package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// TestRunReadsPCAPNG: rtcfuzz harvests seed messages from a pcapng
// capture (Wireshark's default format) as it does from classic pcap.
func TestRunReadsPCAPNG(t *testing.T) {
	cap, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Zoom, Network: appsim.WiFiP2P, Seed: 1,
		Start:        time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
		CallDuration: time.Second, MediaRate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "call.pcapng")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := pcap.NewNGWriter(f, pcap.LinkTypeRaw)
	for _, fr := range cap.Frames() {
		if err := w.WritePacket(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "corpus")
	if err := run(path, out, 5, 1, "", true); err != nil {
		t.Fatal(err)
	}
	seeds, err := filepath.Glob(filepath.Join(out, "seed_*.bin"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no seed messages harvested from the pcapng capture (%v)", err)
	}
	if muts, _ := filepath.Glob(filepath.Join(out, "mut_*.bin")); len(muts) != 5 {
		t.Fatalf("wrote %d mutated variants, want 5", len(muts))
	}
}
