package dpi

import (
	"maps"
	"math/rand/v2"
	"strings"
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

// chunkResults assembles one chunk's pass-2 results from the runs Feed
// and Finalize return, as the analyzer folds them: a run covers the
// last len(run) records fed so far, and a run that starts below what
// it holds (a restarted pass 2) replaces it from there. Runs are
// summarized on arrival, since the inspector recycles their storage at
// its next call.
type chunkResults struct {
	held []string
	// restarts counts the runs that replaced held results, and
	// replaced the results they replaced.
	restarts, replaced int
}

// add takes run, the results of the last len(run) of n records.
func (c *chunkResults) add(t testing.TB, n int, run []Result) {
	t.Helper()
	if len(run) == 0 {
		return
	}
	from := n - len(run)
	if from > len(c.held) {
		t.Fatalf("a run of %d results for %d records leaves records %d..%d without results", len(run), n, len(c.held), from-1)
	}
	if from < len(c.held) {
		c.restarts++
		c.replaced += len(c.held) - from
		c.held = c.held[:from]
	}
	for i := range run {
		c.held = append(c.held, summarize(run[i:i+1]))
	}
}

// take returns the assembled chunk and starts the next one.
func (c *chunkResults) take() string {
	s := strings.Join(c.held, "")
	c.held = c.held[:0]
	return s
}

// feedRecords feeds payloads to si as the analyzer does, one more
// record per Feed, then finalizes them as one chunk, and returns the
// chunk's results assembled from every run Feed and Finalize returned.
func feedRecords(t testing.TB, si *StreamInspector, payloads [][]byte) string {
	t.Helper()
	var c chunkResults
	recs := make([]flow.Packet, 0, len(payloads))
	for _, p := range payloads {
		recs = append(recs, flow.Packet{Payload: p})
		c.add(t, len(recs), si.Feed(recs))
	}
	c.add(t, len(recs), si.Finalize(recs))
	return c.take()
}

// eventLog is a Tracer that keeps every event it receives.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Emit(ev obs.Event) { l.events = append(l.events, ev) }

// feedScanSide is one inspector under comparison, with its own metrics
// registry and, when traced, its own decision-trace span; an untraced
// inspector runs pass 2 at Feed on a stream's first chunk.
type feedScanSide struct {
	reg  *metrics.Registry
	log  *eventLog
	span *obs.Span
	si   *StreamInspector
	// chunk assembles the results Feed returned since the last
	// Finalize.
	chunk chunkResults
}

func newFeedScanSide(traced bool) *feedScanSide {
	s := &feedScanSide{reg: metrics.NewRegistry(), log: &eventLog{}}
	s.si = (&Engine{Metrics: s.reg}).NewStreamInspector()
	if traced {
		s.span = obs.New(s.log, "app", obs.Sampling{Head: 1 << 30, Tail: 1}, nil).StreamSpan("st")
		s.si.SetSpan(s.span)
	}
	return s
}

// counts returns the side's dpi_messages_total and
// dpi_offset_shift_attempts_total counters.
func (s *feedScanSide) counts() map[string]uint64 {
	c := s.reg.Snapshot().Counters
	delete(c, "dpi_pass2_discarded_total")
	return c
}

func (s *feedScanSide) discarded() uint64 {
	return s.reg.Counter("dpi_pass2_discarded_total").Value()
}

// checkFeedScan feeds stream to two StreamInspectors, one traced and
// one untraced, and finalizes them and a deferredInspector reference
// for each after every chunk: chunks[i] is the number of datagrams fed
// before the i-th Finalize (0 finalizes with nothing pending), and the
// datagrams left after the last chunk form one more. Each chunk's
// records reuse the previous chunk's array, so an inspector that kept
// reading records past their Finalize would read the next chunk's.
// After every Finalize each inspector must match its reference: the
// same results (the untraced one's assembled from its Feed and
// Finalize runs, as the analyzer assembles them), the same message and
// shift-attempt counts, the same validated SSRCs and, traced, the same
// decision trace. The untraced inspector's dpi_pass2_discarded_total
// must count the results its restarts replaced. checkFeedScan returns
// how many runs restarted the untraced inspector's pass 2.
func checkFeedScan(t *testing.T, stream [][]byte, chunks []byte) (restarts int) {
	t.Helper()
	got, ref := newFeedScanSide(true), newFeedScanSide(true)
	spec, specRef := newFeedScanSide(false), newFeedScanSide(false)
	deferred := &deferredInspector{si: ref.si}
	deferredU := &deferredInspector{si: specRef.si}
	var recs []flow.Packet
	fed := 0
	finalize := func(step int) {
		t.Helper()
		g, w := summarize(got.si.Finalize(recs)), summarize(deferred.Finalize(recs))
		spec.chunk.add(t, len(recs), spec.si.Finalize(recs))
		gu, wu := spec.chunk.take(), summarize(deferredU.Finalize(recs))
		recs = recs[:0]
		if g != w {
			t.Fatalf("Finalize %d after %d datagrams: results differ from scanning at Finalize:\nfeed scan:     %s\nfinalize scan: %s", step, fed, g, w)
		}
		if gu != wu {
			t.Fatalf("Finalize %d after %d datagrams: untraced results differ from scanning at Finalize:\nfeed scan:     %s\nfinalize scan: %s", step, fed, gu, wu)
		}
		for _, side := range [][2]*feedScanSide{{got, ref}, {spec, specRef}} {
			if g, w := side[0].counts(), side[1].counts(); !maps.Equal(g, w) {
				t.Fatalf("Finalize %d after %d datagrams (traced %v): counters %v, scanning at Finalize %v", step, fed, side[0].span != nil, g, w)
			}
			if g, w := side[0].si.scan.ValidatedSSRC, side[1].si.scan.ValidatedSSRC; !maps.Equal(g, w) {
				t.Fatalf("Finalize %d after %d datagrams (traced %v): validated SSRCs %v, scanning at Finalize %v", step, fed, side[0].span != nil, g, w)
			}
		}
		if g, w := spec.discarded(), uint64(spec.chunk.replaced); g != w {
			t.Fatalf("Finalize %d after %d datagrams: dpi_pass2_discarded_total %d, restarts replaced %d results", step, fed, g, w)
		}
		if n := got.discarded(); n != 0 {
			t.Fatalf("Finalize %d after %d datagrams: the traced inspector discarded %d records", step, fed, n)
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
			if r := got.si.Feed(recs); r != nil {
				t.Fatalf("the traced inspector's Feed returned %d results", len(r))
			}
			spec.chunk.add(t, len(recs), spec.si.Feed(recs))
		}
	}
	for step, n := range chunks {
		feed(int(n))
		finalize(step)
	}
	feed(len(stream))
	finalize(len(chunks))
	return spec.chunk.restarts
}

// feedScanSSRC is the SSRC of the k-th RTP run in a feedScanStream.
func feedScanSSRC(k int) uint32 { return 0x51000 + uint32(k) }

// feedScanSeed encodes a feedScanStream shape: its length n (0-400),
// its number of RTP runs (1-3), and a salt that varies the rest.
func feedScanSeed(n, runs int, salt uint64) uint64 {
	return salt*1203 + uint64(runs-1)*401 + uint64(n)
}

// feedScanStream builds the stream feedScanSeed encodes. Most
// datagrams carry RTP from one to three SSRCs. The first run has
// continuous sequence numbers. The second run's validating pair, two
// datagrams with consecutive sequence numbers, is datagrams 65 and 66,
// and the third's is datagrams 129 and 130; everywhere else a later
// run's sequence numbers jump by 64 or more, so the pair is the only
// evidence that validates it, and it does so only after Feed has
// scanned one full batch, or two. A later run also shows up before its
// pair, so pass 2 run before the pair is scanned extracts fewer RTP
// messages than pass 2 at Finalize. The rest are dispatchCorpus
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
		switch v := r.IntN(10); {
		case v < 6:
			k := r.IntN(runs)
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
// a full batch at a time, and pass 2 too on an untraced stream's first
// chunk, changes nothing Finalize reports: over streams of up to 400
// datagrams, cut into chunks at and around the batch size, every
// Finalize returns the results, shift-attempt delta, validated SSRCs
// and decision trace of a reference that scans the whole chunk at
// Finalize. The long seeded streams validate their second and third
// RTP runs, so evidence tallied in later batches reaches pass 2, and
// restarts an untraced first chunk's pass 2.
func TestScanAtFeedMatchesScanAtFinalize(t *testing.T) {
	restarts := 0
	for _, seed := range feedScanSeeds {
		stream := feedScanStream(seed)
		for _, chunks := range feedScanChunks {
			restarts += checkFeedScan(t, stream, chunks)
		}
		if len(stream) < 200 || seed/401%3 != 2 {
			continue
		}
		si := NewEngine().NewStreamInspector()
		feedRecords(t, si, stream)
		for k := range 3 {
			if !si.scan.ValidatedSSRC[feedScanSSRC(k)] {
				t.Errorf("stream seed %d: RTP run %d never validates", seed, k)
			}
		}
	}
	if restarts == 0 {
		t.Error("no seeded case restarted pass 2: the untraced parity check never saw a stale result")
	}
	t.Logf("%d runs restarted pass 2 over the seeded cases", restarts)
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

// TestPass2RestartsOnce pins that a chunk's pass 2 restarts at most
// once: on a stream whose every batch of 64 validates a new SSRC, so
// that the validated-SSRC set grows after each of Feed's pass-2 runs,
// Feed stops running pass 2 once the set has grown past its results,
// and Finalize's restart discards fewer records than the chunk holds
// instead of a count that grows with its square. The results still
// match pass 2 at Finalize.
func TestPass2RestartsOnce(t *testing.T) {
	const batches = 8
	var stream [][]byte
	seq := uint16(1)
	for b := range batches {
		for i := range scanBatch {
			if i < 2 {
				// Batch b's validating pair for SSRC b: consecutive
				// sequence numbers, seen nowhere else.
				stream = append(stream, rtpPacket(feedScanSSRC(b)+0x100, uint16(1000*b+i), make([]byte, 40)))
				continue
			}
			stream = append(stream, rtpPacket(feedScanSSRC(0), seq, make([]byte, 40)))
			seq++
		}
	}
	reg := metrics.NewRegistry()
	si := (&Engine{Metrics: reg}).NewStreamInspector()
	var c chunkResults
	recs := make([]flow.Packet, 0, len(stream))
	for _, p := range stream {
		recs = append(recs, flow.Packet{Payload: p})
		c.add(t, len(recs), si.Feed(recs))
	}
	c.add(t, len(recs), si.Finalize(recs))
	if n := len(si.scan.ValidatedSSRC); n != batches+1 {
		t.Fatalf("%d SSRCs validated, want one per batch and the filler's", n)
	}
	ref := &deferredInspector{si: NewEngine().NewStreamInspector()}
	if got, want := c.take(), summarize(ref.Finalize(recs)); got != want {
		t.Fatalf("results differ from pass 2 at Finalize:\ngot:  %s\nwant: %s", got, want)
	}
	if c.restarts != 1 {
		t.Errorf("pass 2 restarted %d times, want once", c.restarts)
	}
	discarded := reg.Counter("dpi_pass2_discarded_total").Value()
	if discarded == 0 || discarded >= uint64(len(stream)) {
		t.Errorf("the restart discarded pass 2 of %d records, want more than 0 and fewer than the chunk's %d", discarded, len(stream))
	}
	t.Logf("the restart discarded pass 2 of %d of %d records", discarded, len(stream))
}
