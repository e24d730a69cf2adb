package ingest_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/ingest"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// TestShardedTraceMatchesSerial: a traced sharded run exports the
// serial Analyzer's JSONL byte for byte, for every app and seed at 1,
// 2, 4 and 16 shards. Shards only buffer their streams' events; the
// merged analyzer begins the capture, emits the filter verdicts, and
// flushes the spans in the serial fold order. The ten seconds of
// pre-call capture give the background's in-call LAN chatter its
// pre-call pair, which the serial filter removes on arrival while a
// shard without that evidence admits the stream until the merge. Run
// under -race in CI.
func TestShardedTraceMatchesSerial(t *testing.T) {
	export := func(t *testing.T, analyze func(core.Options) error) []byte {
		t.Helper()
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		if err := analyze(core.Options{Tracer: w}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, app := range appsim.Apps {
		for seed := uint64(1); seed <= 3; seed++ {
			cap, err := trace.Generate(trace.CaptureConfig{
				App: app, Network: appsim.WiFiP2P, Seed: seed,
				Start: t0, CallDuration: 4 * time.Second, PrePost: 10 * time.Second,
				MediaRate: 12, Background: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			in := cap.Input()
			serial := export(t, func(opts core.Options) error {
				_, err := core.AnalyzeCapture(in, opts)
				return err
			})
			if len(serial) == 0 {
				t.Fatalf("%s seed %d: empty serial trace", app, seed)
			}
			for _, n := range shardCounts {
				sharded := export(t, func(opts core.Options) error {
					_, err := ingest.AnalyzeCapture(in, opts, ingest.Config{Shards: n})
					return err
				})
				if !bytes.Equal(sharded, serial) {
					t.Errorf("%s seed %d: %d-shard trace differs from serial (%d vs %d bytes)",
						app, seed, n, len(sharded), len(serial))
				}
			}
		}
	}
}
