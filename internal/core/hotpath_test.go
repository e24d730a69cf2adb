package core

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/rtp"
)

// The hot-path allocation budget: every stage of the pooled, batched
// datagram lifecycle — decode, flow grouping, DPI (both passes),
// compliance checking, and the assembled FeedBatch path — must run at
// zero allocations per packet in steady state. A regression in any
// stage fails here before it shows up in a benchmark.

// hotRTPFrame builds a raw-IPv4 UDP frame carrying one extension-free,
// CSRC-free RTP packet (the shape the zero-alloc decode path handles
// without growing per-packet storage).
func hotRTPFrame(src, dst netip.Addr, srcPort, dstPort uint16, ssrc uint32, seq uint16) []byte {
	p := rtp.Packet{
		Version:        2,
		PayloadType:    111,
		SequenceNumber: seq,
		Timestamp:      uint32(seq) * 960,
		SSRC:           ssrc,
	}
	p.Payload = make([]byte, 160)
	for i := range p.Payload {
		p.Payload[i] = 0x5a
	}
	return layers.EncodeUDPv4(src, dst, srcPort, dstPort, p.Encode())
}

// patchSeq rewrites the RTP sequence number (and matching media
// timestamp) inside an encoded frame in place: 20 bytes IPv4 + 8 UDP
// puts the RTP header at offset 28. Decoding ignores the UDP checksum,
// so no fixup is needed.
func patchSeq(frame []byte, seq uint16) {
	const rtpOff = 20 + 8
	binary.BigEndian.PutUint16(frame[rtpOff+2:], seq)
	binary.BigEndian.PutUint32(frame[rtpOff+4:], uint32(seq)*960)
}

var (
	hotSrc = netip.MustParseAddr("10.0.0.1")
	hotDst = netip.MustParseAddr("203.0.113.7")
	hotAlt = netip.MustParseAddr("203.0.113.8")
)

// TestHotPathAllocs pins each pipeline stage, then the whole pooled
// FeedBatch path, to 0 allocs/op.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are not stable")
	}

	t.Run("decode", func(t *testing.T) {
		frame := hotRTPFrame(hotSrc, hotDst, 50000, 4444, 0xbeef, 1)
		var pkt layers.Packet
		allocs := testing.AllocsPerRun(500, func() {
			if err := layers.DecodeInto(&pkt, pcap.LinkTypeRaw, frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("DecodeInto allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("flow-add", func(t *testing.T) {
		table := flow.NewTable()
		frame := hotRTPFrame(hotSrc, hotDst, 50000, 4444, 0xbeef, 1)
		var pkt layers.Packet
		if err := layers.DecodeInto(&pkt, pcap.LinkTypeRaw, frame); err != nil {
			t.Fatal(err)
		}
		ts := time.Unix(1700000000, 0)
		s, ok := table.AddPacket(ts, &pkt, false)
		if !ok {
			t.Fatal("AddPacket rejected the probe packet")
		}
		src := flow.Endpoint{Addr: hotSrc, Port: 50000}
		dst := flow.Endpoint{Addr: hotDst, Port: 4444}
		dir := flow.DirAToB
		if s.Key.A != src {
			dir = flow.DirBToA
		}
		// Warm both the record slice and the 3-tuple memo, then measure
		// the pool-mode steady state: records retained, then truncated
		// as the analyzer's drop path does.
		table.AddToStream(s, ts, dir, src, dst, pkt.Payload, 0, true)
		s.Packets = s.Packets[:0]
		allocs := testing.AllocsPerRun(500, func() {
			ts = ts.Add(time.Millisecond)
			table.AddToStream(s, ts, dir, src, dst, pkt.Payload, 0, true)
			s.Packets = s.Packets[:0]
		})
		if allocs != 0 {
			t.Errorf("AddToStream allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("dpi-two-pass", func(t *testing.T) {
		engine := Options{}.engine()
		si := engine.NewStreamInspector()
		const chunk = 16
		payloads := make([][]byte, chunk)
		for i := range payloads {
			frame := hotRTPFrame(hotSrc, hotDst, 50000, 4444, 0xbeef, uint16(i))
			payloads[i] = frame[28:] // UDP payload view
		}
		seq := uint16(0)
		feedChunk := func() {
			for i := range payloads {
				// payloads[i] starts at the RTP header, so the sequence
				// number and media timestamp sit at offsets 2 and 4.
				binary.BigEndian.PutUint16(payloads[i][2:], seq)
				binary.BigEndian.PutUint32(payloads[i][4:], uint32(seq)*960)
				seq++
				si.Feed(payloads[i])
			}
			if got := si.Finalize(); len(got) != chunk {
				t.Fatalf("Finalize returned %d results, want %d", len(got), chunk)
			}
		}
		// Warm-up validates the SSRC and sizes the arenas/slabs.
		for i := 0; i < 4; i++ {
			feedChunk()
		}
		allocs := testing.AllocsPerRun(200, feedChunk)
		if allocs != 0 {
			t.Errorf("StreamInspector chunk (feed %d + finalize) allocates %.1f/op, want 0", chunk, allocs)
		}
	})

	t.Run("compliance-check", func(t *testing.T) {
		engine := Options{}.engine()
		si := engine.NewStreamInspector()
		var payloads [][]byte
		for i := 0; i < 4; i++ {
			frame := hotRTPFrame(hotSrc, hotDst, 50000, 4444, 0xbeef, uint16(i))
			payloads = append(payloads, frame[28:])
			si.Feed(frame[28:])
		}
		results := si.Finalize()
		msgIdx := -1
		for i := len(results) - 1; i >= 0; i-- {
			if len(results[i].Messages) > 0 {
				msgIdx = i
				break
			}
		}
		if msgIdx < 0 {
			t.Fatal("no validated RTP message to check")
		}
		m := results[msgIdx].Messages[0]
		session := compliance.NewChecker().NewSession()
		ts := time.Unix(1700000000, 0)
		session.Check(m, ts) // warm the per-session scratch and stats keys
		allocs := testing.AllocsPerRun(500, func() {
			ts = ts.Add(time.Millisecond)
			if out := session.Check(m, ts); len(out) == 0 {
				t.Fatal("Check returned no verdicts")
			}
		})
		if allocs != 0 {
			t.Errorf("Session.Check allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("feedbatch-end-to-end", func(t *testing.T) {
		defer bufpool.EnablePoison(bufpool.EnablePoison(true))
		a, err := NewAnalyzer(AnalyzerConfig{
			Label:     "hotpath",
			LinkType:  pcap.LinkTypeRaw,
			CallStart: time.Unix(1700000000, 0),
			CallEnd:   time.Unix(1700000000, 0).Add(time.Hour),
			Pool:      bufpool.Global(),
		}, Options{SkipFindings: true, EvictIdle: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		// Two streams alternate batches with gaps above EvictIdle, so
		// each batch finalizes the other stream's chunk and recycles its
		// arena — the steady state the pool exists for.
		const batchLen = 64
		mkBatch := func(dst netip.Addr, ssrc uint32) []Datagram {
			b := make([]Datagram, batchLen)
			for i := range b {
				b[i].Frame = hotRTPFrame(hotSrc, dst, 50000, 4444, ssrc, 0)
			}
			return b
		}
		batches := [2][]Datagram{mkBatch(hotDst, 0xbeef), mkBatch(hotAlt, 0xcafe)}
		seqs := [2]uint16{}
		ts := time.Unix(1700000000, 0).Add(time.Second)
		turn := 0
		feed := func() {
			b := batches[turn]
			for i := range b {
				patchSeq(b[i].Frame, seqs[turn])
				seqs[turn]++
				ts = ts.Add(50 * time.Microsecond)
				b[i].Timestamp = ts
			}
			ts = ts.Add(5 * time.Millisecond) // idle the stream past EvictIdle
			if err := a.FeedBatch(b); err != nil {
				t.Fatal(err)
			}
			turn = 1 - turn
		}
		// Warm-up: create both streams, validate SSRCs, run several
		// eviction/wake cycles to size every arena and scratch buffer.
		for i := 0; i < 12; i++ {
			feed()
		}
		allocs := testing.AllocsPerRun(100, feed)
		if perPkt := allocs / batchLen; perPkt != 0 {
			t.Errorf("pooled FeedBatch allocates %.3f/packet (%.1f/batch), want 0", perPkt, allocs)
		}
		if _, err := a.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFeedBatchPoisonHammer drives 16 per-shard analyzers concurrently
// through the pooled FeedBatch path with poison-on-release armed, all
// sharing the process-wide buffer pool. Any retention of a released
// buffer — by another analyzer or a later chunk of the same one — is
// poisoned to 0xDB and surfaces as a divergence from the serial
// reference. Run under -race to also catch unsynchronized access.
func TestFeedBatchPoisonHammer(t *testing.T) {
	defer bufpool.EnablePoison(bufpool.EnablePoison(true))
	capt := streamingCapture(t, appsim.Zoom, appsim.WiFiRelay, 7)
	frames := capt.Frames()

	ref := analyzePooledBatched(t, frames, capt.CallStart, capt.CallEnd)

	const goroutines = 16
	var wg sync.WaitGroup
	analyses := make([]*CaptureAnalysis, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("goroutine %d panicked: %v", g, r)
				}
			}()
			analyses[g] = analyzePooledBatchedErr(frames, capt.CallStart, capt.CallEnd, &errs[g])
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(analyses[g], ref) {
			t.Errorf("goroutine %d: pooled analysis differs from serial reference (buffer reuse corruption?)", g)
		}
	}
}

func analyzePooledBatched(t *testing.T, frames []pcap.Packet, start, end time.Time) *CaptureAnalysis {
	t.Helper()
	var err error
	ca := analyzePooledBatchedErr(frames, start, end, &err)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// analyzePooledBatchedErr runs one pooled, batched analysis over frames
// copied through a reused ring (mimicking the pcap reader's buffer
// reuse, which is what makes retention bugs observable).
func analyzePooledBatchedErr(frames []pcap.Packet, start, end time.Time, errp *error) *CaptureAnalysis {
	a, err := NewAnalyzer(AnalyzerConfig{
		Label:     "hammer",
		LinkType:  pcap.LinkTypeRaw,
		CallStart: start,
		CallEnd:   end,
		Pool:      bufpool.Global(),
	}, Options{Workers: 1})
	if err != nil {
		*errp = err
		return nil
	}
	ring := newFrameRing()
	for _, fr := range frames {
		slot := ring.slot()
		*slot = append((*slot)[:0], fr.Data...)
		if ring.add(fr.Timestamp, *slot) {
			if err := ring.flush(a); err != nil {
				*errp = err
				return nil
			}
		}
	}
	if err := ring.flush(a); err != nil {
		*errp = err
		return nil
	}
	ca, err := a.Close()
	if err != nil {
		*errp = err
		return nil
	}
	return ca
}
