package core

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// FuzzFeedBatch is the differential fuzzer for the pooled hot path:
// whatever frame bytes and batch sizing the fuzzer invents, the pooled
// FeedBatch analyzer (poison-on-release armed, frames recycled through
// reused reader buffers) must produce exactly the analysis of per-packet
// Feed over the same frames held stable (FramesStable), a reference
// that neither copies nor pools. Divergence means either a batching
// bug or a pooled buffer read after release.
//
// Frames are encoded as a flat byte stream of [2-byte big-endian
// length][frame bytes] records so the fuzzer can grow, shrink, and
// splice individual frames.

// encodeFuzzFrames packs frames into the fuzz wire format.
func encodeFuzzFrames(frames ...[]byte) []byte {
	var out []byte
	for _, fr := range frames {
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(fr)))
		out = append(out, l[:]...)
		out = append(out, fr...)
	}
	return out
}

// decodeFuzzFrames unpacks at most max frames, capping each at 512
// bytes so the fuzzer cannot stall the harness with giant inputs.
func decodeFuzzFrames(data []byte, max int) [][]byte {
	var out [][]byte
	for len(data) >= 2 && len(out) < max {
		n := int(binary.BigEndian.Uint16(data)) % 512
		data = data[2:]
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

func FuzzFeedBatch(f *testing.F) {
	// Seeds: two interleaved synthetic RTP streams, a realistic app
	// capture prefix, and degenerate frames (empty, truncated header).
	var synth [][]byte
	for i := 0; i < 8; i++ {
		synth = append(synth,
			hotRTPFrame(hotSrc, hotDst, 50000, 4444, 0xbeef, uint16(i)),
			hotRTPFrame(hotSrc, hotAlt, 50002, 4446, 0xcafe, uint16(i)))
	}
	f.Add(uint8(4), encodeFuzzFrames(synth...))
	capt := streamingCapture(f, appsim.GoogleMeet, appsim.WiFiRelay, 11)
	var real [][]byte
	for _, fr := range capt.Frames() {
		if real = append(real, fr.Data); len(real) == 48 {
			break
		}
	}
	f.Add(uint8(7), encodeFuzzFrames(real...))
	f.Add(uint8(1), encodeFuzzFrames(nil, []byte{0x45}, synth[0][:12], synth[1]))

	f.Fuzz(func(t *testing.T, batchSize uint8, data []byte) {
		frames := decodeFuzzFrames(data, 256)
		if len(frames) == 0 {
			return
		}
		start := time.Unix(1700000000, 0)
		end := start.Add(time.Hour)
		cfg := AnalyzerConfig{
			Label:     "fuzz",
			LinkType:  pcap.LinkTypeRaw,
			CallStart: start,
			CallEnd:   end,
		}
		opts := Options{Workers: 1, EvictIdle: 5 * time.Millisecond}
		ts := func(i int) time.Time { return start.Add(time.Duration(i) * time.Millisecond) }

		// Reference: one Feed per frame, payloads referenced in the
		// fuzz input itself, so no pool code runs.
		rcfg := cfg
		rcfg.FramesStable = true
		ref, err := NewAnalyzer(rcfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range frames {
			if err := ref.Feed(ts(i), fr); err != nil {
				t.Fatal(err)
			}
		}
		// An analysis-level error (e.g. nothing decodable) is a valid
		// outcome — the pooled path must then fail identically.
		want, wantErr := ref.Close()

		// Subject: pooled FeedBatch at the fuzzed batch size, every
		// frame copied through a reader buffer that the next batch
		// overwrites. Poison armed so a use-after-release diverges.
		defer bufpool.EnablePoison(bufpool.EnablePoison(true))
		sub, err := NewAnalyzer(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		bs := int(batchSize)%FeedBatchSize + 1
		bufs := make([][]byte, bs)
		batch := make([]Datagram, 0, bs)
		for i, fr := range frames {
			slot := &bufs[len(batch)]
			*slot = append((*slot)[:0], fr...)
			batch = append(batch, Datagram{Timestamp: ts(i), Frame: *slot})
			if len(batch) == bs {
				if err := sub.FeedBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := sub.FeedBatch(batch); err != nil {
			t.Fatal(err)
		}
		got, gotErr := sub.Close()

		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("pooled FeedBatch error %v, per-packet Feed error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pooled FeedBatch (batch=%d, %d frames) diverged from per-packet Feed", bs, len(frames))
		}
	})
}
