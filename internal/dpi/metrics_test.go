package dpi

import (
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// slowScanHandler is a one-prober protocol whose pass-1 probe takes
// scanDelay at the first offset of every datagram and whose pass-2
// validator rejects at once, so nearly all of Finalize's time is pass 1.
type slowScanHandler struct{}

const scanDelay = 5 * time.Millisecond

func (slowScanHandler) Meta() proto.Meta {
	return proto.Meta{ID: proto.MaxIDs - 1, Name: "slow", Slug: "slow"}
}

func (slowScanHandler) Probers() []proto.Prober {
	return []proto.Prober{{
		Precedence: 10,
		Pass1:      true,
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

// TestInspectSecondsCoversPass1 pins that dpi_inspect_seconds records
// one sample per datagram covering both scan passes: with a pass 1 that
// sleeps per datagram and a pass 2 that does almost nothing, the samples
// must still add up to the sleeps.
func TestInspectSecondsCoversPass1(t *testing.T) {
	reg := proto.NewRegistry()
	reg.Register(slowScanHandler{})
	m := metrics.NewRegistry()
	e := &Engine{MaxOffset: 200, Registry: reg, Metrics: m}
	payloads := [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	e.InspectStream(payloads)

	h, ok := m.Snapshot().Histograms["dpi_inspect_seconds"]
	if !ok {
		t.Fatal("dpi_inspect_seconds not recorded")
	}
	if h.Count != uint64(len(payloads)) {
		t.Errorf("count = %d, want one sample per datagram (%d)", h.Count, len(payloads))
	}
	if want := (time.Duration(len(payloads)) * scanDelay).Seconds(); h.SumSeconds < want {
		t.Errorf("sum = %.4fs, want at least the %.4fs pass 1 slept", h.SumSeconds, want)
	}
}
