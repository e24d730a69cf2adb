package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/live"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// callFrames generates a short raw-IP call to replay.
func callFrames(t *testing.T) []pcap.Packet {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Zoom, Network: appsim.WiFiP2P, Seed: 1,
		Start:        time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
		CallDuration: time.Second, MediaRate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cap.Frames()
}

// writePCAPNG writes frames as a single-interface pcapng file.
func writePCAPNG(t *testing.T, path string, lt pcap.LinkType, frames []pcap.Packet) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := pcap.NewNGWriter(f, lt)
	for _, fr := range frames {
		if err := w.WritePacket(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayReadsPCAPNG: replay streams a pcapng capture (Wireshark's
// default format) to a collector, every frame intact.
func TestReplayReadsPCAPNG(t *testing.T) {
	frames := callFrames(t)
	path := filepath.Join(t.TempDir(), "call.pcapng")
	writePCAPNG(t, path, pcap.LinkTypeRaw, frames)

	col, err := live.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	got := make(chan []pcap.Packet, 1)
	go func() {
		received, _ := col.Collect(context.Background(), len(frames))
		got <- received
	}()
	if err := runReplay([]string{"-pcap", path, "-to", col.Addr(), "-speed", "0"}); err != nil {
		t.Fatal(err)
	}
	received := <-got
	if len(received) != len(frames) {
		t.Fatalf("collector received %d frames, replay sent %d", len(received), len(frames))
	}
	live.SortByTimestamp(received)
	for i := range frames {
		if string(received[i].Data) != string(frames[i].Data) {
			t.Fatalf("frame %d differs after replay", i)
		}
	}
}

// TestReplayRejectsNonRawLinkType: the collector decodes raw IP, so a
// capture of any other link type is refused up front, by name.
func TestReplayRejectsNonRawLinkType(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ether.pcapng")
	writePCAPNG(t, path, pcap.LinkTypeEthernet, callFrames(t)[:1])
	_, err := readReplayFrames(path)
	if err == nil || !strings.Contains(err.Error(), "EN10MB") {
		t.Fatalf("err = %v, want a rejection naming link type EN10MB", err)
	}
}
