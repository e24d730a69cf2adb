package core

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// stageHistogram returns the stage_seconds histogram of one app and
// stage from a snapshot.
func stageHistogram(s metrics.Snapshot, app, stage string) metrics.HistogramSnapshot {
	return s.Histograms[metrics.Name("stage_seconds", metrics.L("app", app), metrics.L("stage", stage))]
}

// TestStageSecondsUseLedgerNames pins the stage_seconds family to the
// bench ledger: after one analysis its stage label values are exactly
// the five pipeline stages, each observed, and each the prefix of a
// per_layer metric in BENCHMARK.json, so /metrics and the ledger name
// the same stages.
func TestStageSecondsUseLedgerNames(t *testing.T) {
	cap := streamingCapture(t, appsim.Zoom, appsim.WiFiP2P, 1)
	reg := metrics.NewRegistry()
	if _, err := AnalyzeCapture(CaptureInput{
		Label: "zoom", LinkType: pcap.LinkTypeRaw, Packets: cap.Frames(),
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
	}, Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var stages []string
	for name, h := range reg.Snapshot().Histograms {
		rest, ok := strings.CutPrefix(name, "stage_seconds{app=zoom,stage=")
		if !ok {
			continue
		}
		stage := strings.TrimSuffix(rest, "}")
		stages = append(stages, stage)
		if h.Count == 0 {
			t.Errorf("stage %s recorded no observation", stage)
		}
	}
	sort.Strings(stages)
	want := []string{"compliance.check", "core.close", "core.feed", "dpi.finalize", "filterpipe.run"}
	if strings.Join(stages, " ") != strings.Join(want, " ") {
		t.Errorf("stage_seconds stages = %v, want %v", stages, want)
	}

	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, stage := range stages {
		found := false
		for _, l := range bench.PerLayer {
			found = found || strings.HasPrefix(l.Name, stage+"_")
		}
		if !found {
			t.Errorf("stage %s names no per_layer metric in BENCHMARK.json", stage)
		}
	}
}

// slowScanHandler is a one-prober protocol whose pass-1 probe takes
// scanDelay at the first offset of every datagram and whose pass-2
// validator rejects at once, so nearly all of the DPI sweep is pass 1.
type slowScanHandler struct{}

const scanDelay = 5 * time.Millisecond

func (slowScanHandler) Meta() proto.Meta {
	return proto.Meta{ID: proto.MaxIDs - 1, Name: "slow", Slug: "slow"}
}

func (slowScanHandler) Probers() []proto.Prober {
	return []proto.Prober{{
		Precedence: 10,
		Probe: func(c proto.Candidate, _ *proto.ScanState) (int, bool) {
			if c.Offset == 0 {
				time.Sleep(scanDelay)
			}
			return 0, false
		},
		Validate: func(proto.Candidate, *proto.StreamState, *proto.Message) bool { return false },
	}}
}

func (slowScanHandler) Comply(dst []proto.Checked, _ proto.Message, _ time.Time, _ *proto.Session) []proto.Checked {
	return dst
}

// TestStageSecondsDPIFinalizeCoversPass1 pins that the dpi.finalize
// stage times a stream chunk's whole DPI sweep, pass 1 included: one
// RTC stream finalized in one chunk gives one observation, and with a
// pass 1 that sleeps per datagram its sum must cover the sleeps.
func TestStageSecondsDPIFinalizeCoversPass1(t *testing.T) {
	reg := proto.NewRegistry()
	reg.Register(slowScanHandler{})
	var frames []pcap.Packet
	for i, payload := range [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}} {
		frames = append(frames, pcap.Packet{
			Timestamp: t0.Add(time.Duration(i) * 20 * time.Millisecond),
			Data:      layers.AppendUDPv4(nil, hotSrc, hotDst, 50000, 4444, payload),
		})
	}
	m := metrics.NewRegistry()
	ca, err := AnalyzeCapture(CaptureInput{
		Label: "slow", LinkType: pcap.LinkTypeRaw, Packets: frames,
		CallStart: t0, CallEnd: t0.Add(time.Second),
	}, Options{Registry: reg, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if ca.Filter.RTCUDP.Streams != 1 {
		t.Fatalf("RTC UDP streams = %d, want the one probe stream", ca.Filter.RTCUDP.Streams)
	}
	h := stageHistogram(m.Snapshot(), "slow", "dpi.finalize")
	if h.Count != 1 {
		t.Errorf("dpi.finalize count = %d, want one chunk", h.Count)
	}
	if want := (time.Duration(len(frames)) * scanDelay).Seconds(); h.SumSeconds < want {
		t.Errorf("dpi.finalize sum = %.4fs, want at least the %.4fs pass 1 slept", h.SumSeconds, want)
	}
}
