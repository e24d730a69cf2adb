package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// dtlsCapture generates a capture with the DTLS-SRTP handshake enabled.
func dtlsCapture(t testing.TB, app appsim.App, network appsim.Network, seed uint64) *trace.Capture {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App: app, Network: network, Seed: seed,
		Start: t0, CallDuration: 2 * time.Second, PrePost: 3 * time.Second,
		MediaRate: 8, DTLS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

// TestDTLSHandshakeAnalyzed proves the tentpole's extensibility claim
// end to end: enabling the app-agnostic DTLS-SRTP emission makes DTLS
// messages appear in the analysis — extracted by the registry-driven
// DPI, judged compliant by the DTLS driver, and reported under the DTLS
// family — for every app and a sweep of networks and seeds, with no
// engine edits anywhere.
func TestDTLSHandshakeAnalyzed(t *testing.T) {
	apps := appsim.Apps
	seeds := []uint64{3, 17, 29}
	if testing.Short() {
		apps = apps[:2]
		seeds = seeds[:1]
	}
	for _, app := range apps {
		for _, network := range streamingNetworks {
			for _, seed := range seeds {
				cap := dtlsCapture(t, app, network, seed)
				ca, err := AnalyzeCapture(cap.Input(), Options{})
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", app, network, seed, err)
				}
				ps := ca.Stats.ByProtocol[dpi.ProtoDTLS]
				if ps == nil || ps.Messages == 0 {
					t.Fatalf("%s/%s/%d: no DTLS messages extracted", app, network, seed)
				}
				// The emitted handshake is standards-form: every record
				// must judge compliant.
				if ps.Compliant != ps.Messages {
					t.Errorf("%s/%s/%d: DTLS compliance = %d/%d, want all",
						app, network, seed, ps.Compliant, ps.Messages)
				}
				// 10 records: 2×ClientHello, HelloVerifyRequest,
				// ServerHello, ServerHelloDone, ClientKeyExchange,
				// 2×ChangeCipherSpec, 2×encrypted Finished.
				if ps.Messages != 10 {
					t.Errorf("%s/%s/%d: DTLS messages = %d, want 10",
						app, network, seed, ps.Messages)
				}
			}
		}
	}
}

// TestDTLSRemovalNeedsNoEngineEdits pins the acceptance criterion that
// DTLS rides entirely on the registry: analyzing the same DTLS-bearing
// capture against Registry.Without(proto.DTLS) runs the stock engine,
// checker, and report code with no DTLS handler and produces an
// analysis identical to the full registry's except that the DTLS rows
// vanish — the handshake datagrams fall through to the proprietary
// classes instead of being dropped.
func TestDTLSRemovalNeedsNoEngineEdits(t *testing.T) {
	cap := dtlsCapture(t, appsim.Discord, appsim.WiFiRelay, 7)
	full, err := AnalyzeCapture(cap.Input(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub := proto.Default().Without(proto.DTLS)
	stripped, err := AnalyzeCapture(cap.Input(), Options{Registry: sub})
	if err != nil {
		t.Fatal(err)
	}

	if full.Stats.ByProtocol[dpi.ProtoDTLS] == nil {
		t.Fatal("full registry extracted no DTLS")
	}
	if ps := stripped.Stats.ByProtocol[dpi.ProtoDTLS]; ps != nil {
		t.Fatalf("stripped registry still extracted DTLS: %+v", ps)
	}
	for _, key := range []dpi.Protocol{dpi.ProtoSTUN, dpi.ProtoRTP, dpi.ProtoRTCP, dpi.ProtoQUIC} {
		if !reflect.DeepEqual(full.Stats.ByProtocol[key], stripped.Stats.ByProtocol[key]) {
			t.Errorf("%v stats changed when DTLS was removed:\nfull:     %+v\nstripped: %+v",
				key, full.Stats.ByProtocol[key], stripped.Stats.ByProtocol[key])
		}
	}
	for key := range full.Stats.Types {
		if key.Protocol == dpi.ProtoDTLS {
			continue
		}
		if !reflect.DeepEqual(full.Stats.Types[key], stripped.Stats.Types[key]) {
			t.Errorf("type %v changed when DTLS was removed", key)
		}
	}
	for key := range stripped.Stats.Types {
		if key.Protocol == dpi.ProtoDTLS {
			t.Errorf("stripped registry judged DTLS type %v", key)
		}
	}
}

// TestDTLSOffMatchesDefault proves the knob is inert when off: a
// capture generated without DTLS analyzes identically whether or not
// the DTLS driver is registered.
func TestDTLSOffMatchesDefault(t *testing.T) {
	cap := streamingCapture(t, appsim.Zoom, appsim.WiFiP2P, 3)
	full, err := AnalyzeCapture(cap.Input(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := AnalyzeCapture(cap.Input(), Options{Registry: proto.Default().Without(proto.DTLS)})
	if err != nil {
		t.Fatal(err)
	}
	diffAnalyses(t, "dtls-off", full, stripped)
}

// TestDTLSStreamingMatchesBatch extends the differential guarantee to
// DTLS-bearing captures: batch, streaming, and sharded analyses agree.
func TestDTLSStreamingMatchesBatch(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		cap := dtlsCapture(t, appsim.GoogleMeet, appsim.Cellular, seed)
		batch, err := BatchAnalyzeCapture(cap.Input(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := AnalyzeCapture(cap.Input(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		diffAnalyses(t, "dtls streaming-1", batch, stream)
		sharded, err := analyzeSharded(cap.Input(), Options{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		diffAnalyses(t, "dtls sharded-8", batch, sharded)
	}
}
