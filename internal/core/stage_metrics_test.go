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

func (slowScanHandler) Probers() []proto.Prober { return sleepingProbers(scanDelay) }

func (slowScanHandler) Comply(dst []proto.Checked, _ proto.Message, _ time.Time, _ *proto.Session) []proto.Checked {
	return dst
}

// sleepingProbers is a pass-1 probe that sleeps for delay at the first
// offset of every datagram and a pass-2 validator that rejects at once.
func sleepingProbers(delay time.Duration) []proto.Prober {
	return []proto.Prober{{
		Precedence: 10,
		Probe: func(c proto.Candidate, _ *proto.ScanState) (int, bool) {
			if c.Offset == 0 {
				time.Sleep(delay)
			}
			return 0, false
		},
		Validate: func(proto.Candidate, *proto.StreamState, *proto.Message) bool { return false },
	}}
}

// TestStageSecondsDPIFinalizeCoversPass1 pins that the dpi.finalize
// stage times the pass 1 a stream chunk still owes at Finalize. Its
// stream's 3 datagrams are fewer than a pass-1 batch, so Feed scans
// none of them and all three are the tail Finalize scans: one RTC
// stream finalized in one chunk gives one observation, and with a
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

// tickScanHandler is slowScanHandler with a pass 1 that sleeps 200 µs
// per datagram.
type tickScanHandler struct{ slowScanHandler }

const tickDelay = 200 * time.Microsecond

func (tickScanHandler) Probers() []proto.Prober { return sleepingProbers(tickDelay) }

// TestStageSecondsSplitPass1 pins where pass 1 is timed once a stream
// fills a pass-1 batch: fed 2x64+8 datagrams in FeedBatchSize batches,
// a stream whose pass 1 sleeps per datagram pays the two full batches'
// sleeps inside FeedBatch (core.feed) and the 8-datagram tail's inside
// Finalize (dpi.finalize).
func TestStageSecondsSplitPass1(t *testing.T) {
	reg := proto.NewRegistry()
	reg.Register(tickScanHandler{})
	m := metrics.NewRegistry()
	a, err := NewAnalyzer(AnalyzerConfig{
		Label: "tick", LinkType: pcap.LinkTypeRaw, FramesStable: true,
		CallStart: t0, CallEnd: t0.Add(time.Second),
	}, Options{Registry: reg, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	const full, tail = 2 * FeedBatchSize, 8
	var batch []Datagram
	for i := range full + tail {
		batch = append(batch, Datagram{
			Timestamp: t0.Add(time.Duration(i) * 5 * time.Millisecond),
			Frame:     layers.AppendUDPv4(nil, hotSrc, hotDst, 50000, 4444, []byte{byte(i), 2, 3}),
		})
		if len(batch) == FeedBatchSize || i == full+tail-1 {
			if err := a.FeedBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	ca, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ca.Filter.RTCUDP.Streams != 1 {
		t.Fatalf("RTC UDP streams = %d, want the one probe stream", ca.Filter.RTCUDP.Streams)
	}
	s := m.Snapshot()
	if h, want := stageHistogram(s, "tick", "core.feed"), (full * tickDelay).Seconds(); h.SumSeconds < want {
		t.Errorf("core.feed sum = %.4fs, want at least the %.4fs the two full batches' pass 1 slept", h.SumSeconds, want)
	}
	if h, want := stageHistogram(s, "tick", "dpi.finalize"), (tail * tickDelay).Seconds(); h.Count != 1 || h.SumSeconds < want {
		t.Errorf("dpi.finalize count %d, sum %.4fs, want one chunk of at least the %.4fs the tail's pass 1 slept", h.Count, h.SumSeconds, want)
	}
}
