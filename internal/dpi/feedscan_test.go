package dpi

import (
	"maps"
	"math/rand/v2"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
)

// deferredInspector is the stream inspector as it was before Feed ran
// pass 1: Finalize runs pass 1 over the whole chunk, then pass 2. It
// drives the scan and pass-2 state of its own StreamInspector, so the
// two differ only in when pass 1 runs.
type deferredInspector struct {
	si *StreamInspector
}

func (d *deferredInspector) Finalize(recs []flow.Packet) []Result {
	si := d.si
	if si.ctx == nil {
		si.ctx = NewStreamContext()
	}
	si.ctx.State.Epoch++
	si.ctx.Span = si.span
	for i := range recs {
		si.scanOne(recs[i].Payload)
	}
	si.ctx.State.ValidatedSSRC = si.scan.ValidatedSSRC
	out := make([]Result, 0, len(recs))
	for i := range recs {
		r := si.e.Inspect(recs[i].Payload, si.ctx)
		for _, msg := range r.Messages {
			if int(msg.Protocol) < len(si.m.messages) {
				si.m.messages[msg.Protocol].Inc()
			}
		}
		out = append(out, r)
	}
	si.m.attempts.Add(uint64(si.ctx.shiftAttempts - si.drainedAttempts))
	si.drainedAttempts = si.ctx.shiftAttempts
	return out
}

// feedRecords feeds payloads to si as the analyzer does, one more
// record per Feed, and returns the chunk's records for Finalize.
func feedRecords(si *StreamInspector, payloads [][]byte) []flow.Packet {
	recs := make([]flow.Packet, 0, len(payloads))
	for _, p := range payloads {
		recs = append(recs, flow.Packet{Payload: p})
		si.Feed(recs)
	}
	return recs
}

// eventLog is a Tracer that keeps every event it receives.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Emit(ev obs.Event) { l.events = append(l.events, ev) }

// feedScanSide is one inspector under comparison, with its own metrics
// registry and its own decision-trace span.
type feedScanSide struct {
	reg  *metrics.Registry
	log  *eventLog
	span *obs.Span
	si   *StreamInspector
}

func newFeedScanSide() *feedScanSide {
	s := &feedScanSide{reg: metrics.NewRegistry(), log: &eventLog{}}
	s.span = obs.New(s.log, "app", obs.Sampling{Head: 1 << 30, Tail: 1}, nil).StreamSpan("st")
	s.si = (&Engine{Metrics: s.reg}).NewStreamInspector()
	s.si.SetSpan(s.span)
	return s
}

func (s *feedScanSide) attempts() uint64 {
	return s.reg.Counter("dpi_offset_shift_attempts_total").Value()
}

// checkFeedScan feeds stream to a StreamInspector and finalizes it
// and the deferredInspector reference after every chunk: chunks[i] is
// the number of datagrams fed before the i-th Finalize (0 finalizes
// with nothing pending), and the datagrams left after the last chunk
// form one more. Each chunk's records reuse the previous chunk's array,
// so an inspector that kept reading records past their Finalize would
// read the next chunk's. After every Finalize the two must return the
// same results, count the same shift attempts, hold the same validated
// SSRCs and have emitted the same decision trace.
func checkFeedScan(t *testing.T, stream [][]byte, chunks []byte) {
	t.Helper()
	got, ref := newFeedScanSide(), newFeedScanSide()
	deferred := &deferredInspector{si: ref.si}
	var recs []flow.Packet
	fed := 0
	finalize := func(step int) {
		t.Helper()
		g, w := summarize(got.si.Finalize(recs)), summarize(deferred.Finalize(recs))
		recs = recs[:0]
		if g != w {
			t.Fatalf("Finalize %d after %d datagrams: results differ from scanning at Finalize:\nfeed scan:     %s\nfinalize scan: %s", step, fed, g, w)
		}
		if g, w := got.attempts(), ref.attempts(); g != w {
			t.Fatalf("Finalize %d after %d datagrams: %d shift attempts, scanning at Finalize %d", step, fed, g, w)
		}
		if g, w := got.si.scan.ValidatedSSRC, ref.si.scan.ValidatedSSRC; !maps.Equal(g, w) {
			t.Fatalf("Finalize %d after %d datagrams: validated SSRCs %v, scanning at Finalize %v", step, fed, g, w)
		}
		got.span.Flush()
		ref.span.Flush()
		if g, w := got.log.events, ref.log.events; len(g) != len(w) {
			t.Fatalf("Finalize %d after %d datagrams: %d new trace events, scanning at Finalize %d", step, fed, len(g), len(w))
		}
		for i, ev := range ref.log.events {
			if got.log.events[i] != ev {
				t.Fatalf("Finalize %d after %d datagrams: trace event %d is %+v, scanning at Finalize %+v", step, fed, i, got.log.events[i], ev)
			}
		}
		got.log.events, ref.log.events = got.log.events[:0], ref.log.events[:0]
	}
	feed := func(n int) {
		for end := min(fed+n, len(stream)); fed < end; fed++ {
			recs = append(recs, flow.Packet{Payload: stream[fed]})
			got.si.Feed(recs)
		}
	}
	for step, n := range chunks {
		feed(int(n))
		finalize(step)
	}
	feed(len(stream))
	finalize(len(chunks))
}

// feedScanSSRC is the SSRC of the k-th RTP run in a feedScanStream.
func feedScanSSRC(k int) uint32 { return 0x51000 + uint32(k) }

// feedScanSeed encodes a feedScanStream shape: its length n (0-400),
// its number of RTP runs (1-3), and a salt that varies the rest.
func feedScanSeed(n, runs int, salt uint64) uint64 {
	return salt*1203 + uint64(runs-1)*401 + uint64(n)
}

// feedScanStream builds the stream feedScanSeed encodes. Most
// datagrams carry RTP from one to three SSRCs. The first run starts at
// datagram 1 with continuous sequence numbers. The second run's first
// two datagrams are datagrams 65 and 66, with consecutive sequence
// numbers, and the third's are datagrams 129 and 130; after that pair
// each later run's sequence numbers jump by 64 or more, so the pair is
// the only evidence that validates it, and it does so only after Feed
// has scanned one full batch, or two. The rest are dispatchCorpus
// messages and random payloads, and a quarter of the RTP messages
// follow a random proprietary header.
func feedScanStream(seed uint64) [][]byte {
	n, runs := int(seed%401), 1+int(seed/401%3)
	r := rand.New(rand.NewPCG(seed, seed^0x5eed))
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		return b
	}
	var seqs [3]uint16
	for k := range seqs {
		seqs[k] = uint16(r.Uint32())
	}
	media := func(k int) []byte {
		p := rtpPacket(feedScanSSRC(k), seqs[k], random(20+r.IntN(140)))
		if r.IntN(4) == 0 {
			p = append(random(1+r.IntN(24)), p...)
		}
		return p
	}
	corpus := dispatchCorpus()
	stream := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if k := i / 64; k > 0 && k < runs && i%64 < 2 {
			// The k-th late run's validating pair.
			stream = append(stream, media(k))
			seqs[k]++
			continue
		}
		live := 1
		for live < runs && i >= 64*live+2 {
			live++
		}
		switch v := r.IntN(10); {
		case v < 6:
			k := r.IntN(live)
			stream = append(stream, media(k))
			if seqs[k]++; k > 0 {
				seqs[k] += uint16(63 + r.IntN(512))
			}
		case v < 8:
			stream = append(stream, corpus[r.IntN(len(corpus))])
		default:
			stream = append(stream, random(r.IntN(200)))
		}
	}
	return stream
}

// feedScanChunks are the seeded cut patterns: Finalize after 63, 64,
// 65 and 128 datagrams, on both sides of a full batch, twice in a row
// with nothing pending, and once at the end only (no cut).
var feedScanChunks = [][]byte{
	nil,
	{63},
	{64},
	{65},
	{128},
	{64, 64},
	{63, 1, 64},
	{65, 63, 1},
	{64, 0, 0},
	{0, 0, 128},
	{1, 127, 64, 64},
}

// feedScanSeeds are the seeded stream shapes: empty, one datagram
// short of a batch, a batch and one, and long streams whose later RTP
// runs validate only after Feed has scanned one or two full batches.
var feedScanSeeds = []uint64{
	feedScanSeed(0, 1, 0),
	feedScanSeed(63, 1, 0),
	feedScanSeed(65, 2, 0),
	feedScanSeed(200, 3, 0),
	feedScanSeed(300, 3, 1),
	feedScanSeed(400, 3, 2),
	feedScanSeed(400, 2, 3),
}

// TestScanAtFeedMatchesScanAtFinalize pins that running pass 1 at Feed,
// a full batch at a time, changes nothing Finalize reports: over
// streams of up to 400 datagrams, cut into chunks at and around the
// batch size, every Finalize returns the results, shift-attempt delta,
// validated SSRCs and decision trace of a reference that scans the
// whole chunk at Finalize. The long seeded streams validate their
// second and third RTP runs, so evidence tallied in later batches
// reaches pass 2.
func TestScanAtFeedMatchesScanAtFinalize(t *testing.T) {
	for _, seed := range feedScanSeeds {
		stream := feedScanStream(seed)
		for _, chunks := range feedScanChunks {
			checkFeedScan(t, stream, chunks)
		}
		if len(stream) < 200 || seed/401%3 != 2 {
			continue
		}
		si := NewEngine().NewStreamInspector()
		si.Finalize(feedRecords(si, stream))
		for k := range 3 {
			if !si.scan.ValidatedSSRC[feedScanSSRC(k)] {
				t.Errorf("stream seed %d: RTP run %d never validates", seed, k)
			}
		}
	}
}

// FuzzScanAtFeed fuzzes TestScanAtFeedMatchesScanAtFinalize's check over
// (stream seed, chunk lengths).
func FuzzScanAtFeed(f *testing.F) {
	for _, seed := range feedScanSeeds {
		for _, chunks := range feedScanChunks {
			f.Add(seed, chunks)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, chunks []byte) {
		checkFeedScan(t, feedScanStream(seed), chunks)
	})
}
