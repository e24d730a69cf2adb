package ingest_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/ingest"
	"github.com/rtc-compliance/rtcc/internal/qoe"
)

// QoE determinism differential: the header-free QoE features attached
// to a capture analysis must be byte-identical — not just numerically
// close — across the serial and sharded pipelines.
// Features are pure functions of each stream's (timestamp, size)
// sequence in capture order, and the capture-level fold runs in the
// deterministic RTC stream order every pipeline shares, so the JSON
// encodings must match exactly.

// qoeJSON renders the QoE result canonically for byte comparison.
func qoeJSON(t *testing.T, ca *core.CaptureAnalysis) []byte {
	t.Helper()
	b, err := json.Marshal(ca.QoE)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQoEDeterminismAcrossPipelines(t *testing.T) {
	seeds := invarianceSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	qcfg := &qoe.Config{}
	for _, app := range appsim.Apps {
		for _, seed := range seeds {
			cap := genCapture(t, app, appsim.WiFiP2P, seed)
			in := cap.Input()
			serial, err := core.AnalyzeCapture(in, core.Options{QoE: qcfg})
			if err != nil {
				t.Fatalf("%s seed %d serial: %v", app, seed, err)
			}
			if serial.QoE == nil || len(serial.QoE.Streams) == 0 {
				t.Fatalf("%s seed %d: QoE enabled but no stream features", app, seed)
			}
			ref := qoeJSON(t, serial)

			for _, n := range []int{2, 4, 16} {
				sharded := analyzeSharded(t, cap, ingest.Config{Shards: n}, core.Options{QoE: qcfg})
				if got := qoeJSON(t, sharded); string(got) != string(ref) {
					t.Errorf("%s seed %d: %d-shard QoE differs\nserial:  %s\nsharded: %s", app, seed, n, ref, got)
				}
				requireIdentical(t, fmt.Sprintf("%s seed %d shards %d (qoe on)", app, seed, n), serial, sharded)
			}
		}
	}
}

// TestQoEOffLeavesResultNil pins the nil-estimator contract: without
// Options.QoE the analysis carries no QoE field anywhere, and enabling
// it changes nothing else in the result.
func TestQoEOffLeavesResultNil(t *testing.T) {
	cap := genCapture(t, appsim.Zoom, appsim.WiFiP2P, 7)
	in := cap.Input()
	off, err := core.AnalyzeCapture(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if off.QoE != nil {
		t.Fatal("QoE populated without Options.QoE")
	}
	on, err := core.AnalyzeCapture(in, core.Options{QoE: &qoe.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if on.QoE == nil {
		t.Fatal("QoE missing with Options.QoE set")
	}
	onStripped := *on
	onStripped.QoE = nil
	if !reflect.DeepEqual(off, &onStripped) {
		t.Fatal("enabling QoE changed the analysis beyond the QoE field")
	}
}
