package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// Differential determinism harness for the concurrent analysis engine.
//
// The contract under test: RunMatrix produces output that is
// byte-identical for every worker count, and a capture analyzed on N
// shards matches the serial Analyzer. Serial is the reference
// implementation; the parallel paths fan work out over goroutines and
// fold partial results back in deterministic input order, and any leak
// of scheduling order or map iteration order into the result shows up
// here as a DeepEqual mismatch.

// determinismSeeds is the seed sweep; -short trims it to keep the race
// run quick.
var determinismSeeds = []uint64{1, 7, 42, 101, 31337, 424242, 999999, 8675309}

func determinismMatrixOptions(seed uint64) trace.MatrixOptions {
	return trace.MatrixOptions{
		Runs:         1,
		CallDuration: 3 * time.Second,
		PrePost:      4 * time.Second,
		MediaRate:    10,
		Start:        t0,
		BaseSeed:     seed,
		Background:   true,
	}
}

// assertMatrixEqual compares every externally visible piece of a
// MatrixAnalysis: aggregate stats, Table 1 rows, ordered findings, and
// the capture count.
func assertMatrixEqual(t *testing.T, label string, want, got *MatrixAnalysis) {
	t.Helper()
	if want.Captures != got.Captures {
		t.Errorf("%s: captures %d != %d", label, got.Captures, want.Captures)
	}
	if !reflect.DeepEqual(want.Table1, got.Table1) {
		t.Errorf("%s: Table 1 rows differ\nserial:   %+v\nparallel: %+v", label, want.Table1, got.Table1)
	}
	if !reflect.DeepEqual(want.Findings, got.Findings) {
		t.Errorf("%s: ordered findings differ\nserial:   %v\nparallel: %v", label, want.Findings, got.Findings)
	}
	if !reflect.DeepEqual(want.Aggregate, got.Aggregate) {
		t.Errorf("%s: aggregates differ", label)
		for _, w := range want.Aggregate.Apps() {
			g := got.Aggregate.App(w.App)
			if !reflect.DeepEqual(w, g) {
				t.Errorf("%s: app %s stats differ\nserial:   %+v\nparallel: %+v", label, w.App, w, g)
			}
		}
	}
}

// TestSerialParallelMatrixEquivalence sweeps seeds through the full
// matrix and asserts the serial and parallel engines agree exactly.
func TestSerialParallelMatrixEquivalence(t *testing.T) {
	seeds := determinismSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		mopts := determinismMatrixOptions(seed)
		serial, err := RunMatrix(mopts, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, workers := range []int{4, 16} {
			parallel, err := RunMatrix(mopts, Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			assertMatrixEqual(t, fmt.Sprintf("seed %d workers %d", seed, workers), serial, parallel)
		}
	}
}

// TestSerialParallelCaptureEquivalence checks the per-capture
// parallelism directly: the whole CaptureAnalysis (filter accounting,
// stats, ordered findings, SSRC set, decode errors) must be deeply
// equal between the serial Analyzer and N shards merged and finalized
// on N goroutines, including for the apps whose findings merge across
// streams (Zoom, FaceTime, Discord).
func TestSerialParallelCaptureEquivalence(t *testing.T) {
	apps := []appsim.App{appsim.Zoom, appsim.FaceTime, appsim.Discord, appsim.GoogleMeet}
	if testing.Short() {
		apps = apps[:2]
	}
	for _, app := range apps {
		cap, err := trace.Generate(trace.CaptureConfig{
			App: app, Network: appsim.WiFiRelay, Seed: 271828,
			Start: t0, CallDuration: 5 * time.Second, PrePost: 6 * time.Second,
			MediaRate: 15, Background: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := CaptureInput{
			Label: string(app), LinkType: pcap.LinkTypeRaw, Packets: cap.Frames(),
			CallStart: cap.CallStart, CallEnd: cap.CallEnd,
		}
		serial, err := AnalyzeCapture(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := analyzeSharded(in, Options{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: serial and parallel CaptureAnalysis differ", app)
			if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
				t.Errorf("%s: stats differ", app)
			}
			if !reflect.DeepEqual(serial.Findings, parallel.Findings) {
				t.Errorf("%s: findings differ\nserial:   %v\nparallel: %v", app, serial.Findings, parallel.Findings)
			}
			if !reflect.DeepEqual(serial.RTPSSRCs, parallel.RTPSSRCs) {
				t.Errorf("%s: SSRC sets differ", app)
			}
		}
	}
}

// TestRunMatrixDeterminism is the golden repeat test: the same seed and
// options run twice must produce deeply equal results, catching any
// map-iteration-order leakage into reports independent of the
// serial/parallel comparison.
func TestRunMatrixDeterminism(t *testing.T) {
	mopts := determinismMatrixOptions(5150)
	opts := Options{Workers: 8}
	first, err := RunMatrix(mopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunMatrix(mopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two identical RunMatrix runs produced different results")
		assertMatrixEqual(t, "repeat", first, second)
	}
}

// TestDecodeErrorsCounted feeds a capture mixing decodable frames with
// undecodable garbage and checks the dropped-frame count is surfaced.
func TestDecodeErrorsCounted(t *testing.T) {
	cap, err := trace.Generate(trace.CaptureConfig{
		App: appsim.WhatsApp, Network: appsim.WiFiRelay, Seed: 11,
		Start: t0, CallDuration: 4 * time.Second, PrePost: 5 * time.Second,
		MediaRate: 10, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := cap.Frames()
	const garbage = 17
	for i := 0; i < garbage; i++ {
		frames = append(frames, pcap.Packet{
			Timestamp: cap.CallStart.Add(time.Duration(i) * time.Millisecond),
			Data:      []byte{0xff, 0xee, 0xdd},
		})
	}
	ca, err := AnalyzeCapture(CaptureInput{
		Label: "mixed", LinkType: pcap.LinkTypeRaw, Packets: frames,
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ca.DecodeErrors != garbage {
		t.Errorf("DecodeErrors = %d, want %d", ca.DecodeErrors, garbage)
	}
	clean, err := AnalyzeCapture(CaptureInput{
		Label: "clean", LinkType: pcap.LinkTypeRaw, Packets: cap.Frames(),
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.DecodeErrors != 0 {
		t.Errorf("clean capture DecodeErrors = %d, want 0", clean.DecodeErrors)
	}
}
