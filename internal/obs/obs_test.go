package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/metrics"
)

// collect is a minimal in-order sink for tests.
type collect struct{ events []Event }

func (c *collect) Emit(ev Event) { c.events = append(c.events, ev) }

func TestSpanIDStable(t *testing.T) {
	a := SpanID("Zoom", "udp 10.0.0.1:1 <-> 10.0.0.2:2")
	b := SpanID("Zoom", "udp 10.0.0.1:1 <-> 10.0.0.2:2")
	if a != b {
		t.Fatalf("SpanID not deterministic: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("SpanID length = %d, want 16 hex digits", len(a))
	}
	if a == SpanID("Zoom", "") {
		t.Fatal("stream span collides with capture span")
	}
	if SpanID("a", "bc") == SpanID("ab", "c") {
		t.Fatal("label/stream boundary not separated")
	}
}

func TestNilPipelineNoops(t *testing.T) {
	var p *Pipeline
	if got := New(nil, "x", Sampling{}, nil); got != nil {
		t.Fatalf("New(nil tracer) = %v, want nil", got)
	}
	// All of these must be safe on nil receivers.
	p.StreamAdmitted("s")
	p.StreamFiltered("s", 1, "r", "")
	p.StreamEvicted("s")
	p.FindingEmitted("k", "d")
	p.CaptureEnd("done")
	sp := p.StreamSpan("s")
	if sp != nil {
		t.Fatalf("nil pipeline StreamSpan = %v, want nil", sp)
	}
	sp.BeginDatagram()
	sp.Probe(0, 0x16, "DTLS", OutcomeMatch)
	sp.Extraction("standard", 1)
	sp.Verdict(1, time.Time{}, "DTLS", "handshake", 2, "bad", 0, nil)
	sp.Flush()
}

func TestPipelineCaptureEvents(t *testing.T) {
	var c collect
	p := New(&c, "Zoom", Sampling{}, nil)
	p.StreamAdmitted("s1")
	p.StreamFiltered("s2", 1, "too-few-packets", "3 < 10")
	p.FindingEmitted("filler-messages", "66 observed")
	p.CaptureEnd("10 frames, 0 decode errors")

	kinds := []Kind{KindCaptureBegin, KindStreamAdmitted, KindStreamFiltered, KindFindingEmitted, KindCaptureEnd}
	if len(c.events) != len(kinds) {
		t.Fatalf("got %d events, want %d", len(c.events), len(kinds))
	}
	span := SpanID("Zoom", "")
	for i, ev := range c.events {
		if ev.Kind != kinds[i] {
			t.Errorf("event %d kind = %s, want %s", i, ev.Kind, kinds[i])
		}
		if ev.Span != span {
			t.Errorf("event %d span = %s, want capture span %s", i, ev.Span, span)
		}
		if ev.Seq != uint64(i) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i)
		}
	}
	if c.events[2].Rule != "too-few-packets" || c.events[2].Stage != 1 {
		t.Errorf("filtered event rule/stage = %q/%d", c.events[2].Rule, c.events[2].Stage)
	}
	if Lint(c.events) != nil {
		t.Errorf("lint problems on clean capture trace: %v", Lint(c.events))
	}
}

func TestSpanSamplingHeadTail(t *testing.T) {
	var c collect
	p := New(&c, "app", Sampling{Head: 4, Tail: 2}, nil)
	sp := p.StreamSpan("st")
	sp.BeginDatagram()
	for i := 0; i < 10; i++ {
		sp.Probe(i, byte(i), "", OutcomeShift)
	}
	sp.Flush()

	var seqs []uint64
	dropped := 0
	for _, ev := range c.events {
		if ev.Kind == KindProbeAttempt {
			seqs = append(seqs, ev.Seq)
		}
		if ev.Kind == KindTruncated {
			dropped = ev.Dropped
		}
	}
	// Head keeps seqs 0-3, tail ring keeps the last two (8, 9); 4
	// events (4-7) are dropped and reported.
	want := []uint64{0, 1, 2, 3, 8, 9}
	if len(seqs) != len(want) {
		t.Fatalf("kept probe seqs = %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("kept probe seqs = %v, want %v", seqs, want)
		}
	}
	if dropped != 4 {
		t.Errorf("truncated dropped = %d, want 4", dropped)
	}
	if problems := Lint(c.events); problems != nil {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestSpanForcedKeepMergesBySeq(t *testing.T) {
	var c collect
	p := New(&c, "app", Sampling{Head: 1, Tail: 2}, nil)
	sp := p.StreamSpan("st")
	sp.BeginDatagram()
	sp.Probe(0, 0, "", OutcomeShift) // seq 0: head
	sp.Probe(1, 0, "", OutcomeShift) // seq 1: tail (later overwritten)
	// seq 2: failing verdict past the head — must survive any overflow.
	sp.Verdict(1, time.Time{}, "STUN/TURN", "0x0001", 3, "bad attr", 0, []byte{1, 2})
	sp.Probe(2, 0, "", OutcomeShift) // seq 3: tail
	sp.Probe(3, 0, "", OutcomeShift) // seq 4: tail, evicts seq 1
	sp.Flush()

	var seqs []uint64
	for _, ev := range c.events {
		if ev.Span == sp.id && ev.Kind != KindTruncated {
			seqs = append(seqs, ev.Seq)
		}
	}
	want := []uint64{0, 2, 3, 4}
	if len(seqs) != len(want) {
		t.Fatalf("flushed seqs = %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("flushed seqs = %v, want %v (merge by seq broken)", seqs, want)
		}
	}
	if problems := Lint(c.events); problems != nil {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestSpanHeadBudgetSpansFlushes(t *testing.T) {
	var c collect
	p := New(&c, "app", Sampling{Head: 2, Tail: 1}, nil)
	sp := p.StreamSpan("st")
	sp.BeginDatagram()
	sp.Probe(0, 0, "", OutcomeShift)
	sp.Probe(1, 0, "", OutcomeShift)
	sp.Flush() // head exhausted in chunk 1
	sp.Probe(2, 0, "", OutcomeShift)
	sp.Probe(3, 0, "", OutcomeShift)
	sp.Flush() // chunk 2 must go through the tail ring, not a fresh head

	probes := 0
	truncs := 0
	for _, ev := range c.events {
		switch ev.Kind {
		case KindProbeAttempt:
			probes++
		case KindTruncated:
			truncs++
		}
	}
	if probes != 3 { // 2 head + 1 tail; one dropped
		t.Errorf("probes kept = %d, want 3 (head budget must not reset per flush)", probes)
	}
	if truncs != 1 {
		t.Errorf("truncated markers = %d, want 1", truncs)
	}
}

// TestSpanAdoptBeginsCaptureOnce is the sharded merge in miniature: a
// span derived from a shard's pipeline and adopted by the merged one
// flushes through the adopter, and only the adopter begins the capture.
func TestSpanAdoptBeginsCaptureOnce(t *testing.T) {
	var c collect
	shard := New(&c, "Zoom", Sampling{}, nil)
	merged := New(&c, "Zoom", Sampling{}, nil)
	sp := shard.StreamSpan("st")
	sp.BeginDatagram()
	sp.Probe(0, 0x80, "RTP", OutcomeMatch)
	sp.Adopt(merged)
	merged.StreamAdmitted("st")
	sp.Flush()
	merged.CaptureEnd("done")

	want := []Kind{KindCaptureBegin, KindStreamAdmitted, KindProbeAttempt, KindCaptureEnd}
	if len(c.events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(c.events), len(want), c.events)
	}
	for i, ev := range c.events {
		if ev.Kind != want[i] {
			t.Errorf("event %d kind = %s, want %s", i, ev.Kind, want[i])
		}
	}
	if problems := Lint(c.events); problems != nil {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestSpanDoubleFlushEmitsNothingTwice(t *testing.T) {
	var c collect
	p := New(&c, "app", Sampling{}, nil)
	sp := p.StreamSpan("st")
	sp.BeginDatagram()
	sp.Probe(0, 0x80, "RTP", OutcomeMatch)
	sp.Flush()
	n := len(c.events)
	sp.Flush()
	if len(c.events) != n {
		t.Fatalf("second flush emitted %d extra events", len(c.events)-n)
	}
}

func TestVerdictEvent(t *testing.T) {
	var c collect
	p := New(&c, "app", Sampling{}, nil)
	sp := p.StreamSpan("st")
	ts := time.Date(2026, 8, 6, 12, 0, 0, 250e6, time.UTC)
	window := bytes.Repeat([]byte{0xab}, 30)
	sp.Verdict(7, ts, "STUN/TURN", "0x0001", 4, "length mismatch", 2, window)

	var ev Event
	sp.Flush()
	for _, e := range c.events {
		if e.Kind == KindCriterionVerdict {
			ev = e
		}
	}
	if ev.Dgram != 7 || ev.Criterion != 4 || ev.MsgType != "0x0001" || ev.Offset != 2 {
		t.Errorf("verdict fields = %+v", ev)
	}
	if ev.TS != "2026-08-06T12:00:00.25Z" {
		t.Errorf("verdict ts = %q", ev.TS)
	}
	// 24-byte cap with truncation marker.
	if want := strings.Repeat("ab", 24) + "+"; ev.Bytes != want {
		t.Errorf("verdict bytes = %q, want %q", ev.Bytes, want)
	}
}

func TestEventCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	var c collect
	p := New(&c, "app", Sampling{}, reg)
	p.StreamAdmitted("s")
	p.CaptureEnd("done")

	for _, kind := range []Kind{KindCaptureBegin, KindStreamAdmitted, KindCaptureEnd} {
		c := reg.Counter("trace_events_total", metrics.L("kind", string(kind)))
		if c.Value() != 1 {
			t.Errorf("trace_events_total{kind=%s} = %d, want 1", kind, c.Value())
		}
	}
	if c := reg.Counter("trace_events_total", metrics.L("kind", string(KindProbeAttempt))); c.Value() != 0 {
		t.Errorf("probe counter = %d, want 0", c.Value())
	}
}

func TestBufferRing(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Emit(Event{Seq: uint64(i)})
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, want := range []uint64{2, 3, 4} {
		if evs[i].Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	if b.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", b.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	in := []Event{
		{Kind: KindCaptureBegin, Span: "aa", Seq: 0, App: "Zoom"},
		{Kind: KindCriterionVerdict, Span: "bb", Parent: "aa", Seq: 3, Stream: "s",
			Dgram: 2, Proto: "STUN/TURN", MsgType: "0x0001", Criterion: 3,
			Reason: "bad attribute", Bytes: "0001", TS: "2026-08-06T12:00:00Z"},
	}
	for _, ev := range in {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadJSONLStrict(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"kind\":\"probe\",\"span\":\"x\",\"seq\":0}\n{\"kind\":\"probe\",\"bogus\":1}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("unknown field not rejected with line number: %v", err)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	events := []Event{
		{Kind: "nonsense", Span: "x", Seq: 0},
		{Kind: KindProbeAttempt, Span: "y", Seq: 0, Outcome: "maybe", Dgram: 1},
		{Kind: KindProbeAttempt, Span: "y", Seq: 0, Outcome: OutcomeShift, Dgram: 1}, // seq not increasing
		{Kind: KindCriterionVerdict, Span: "y", Seq: 5, Criterion: 2, MsgType: "t"},  // failing, no reason
		{Kind: KindStreamFiltered, Span: "z", Parent: "ghost", Seq: 0, Stream: "s", Rule: "r", Stage: 3},
		{Kind: KindTruncated, Span: "z", Seq: 1, Stream: "s"},
	}
	problems := Lint(events)
	for _, want := range []string{
		"unknown kind", `outcome "maybe"`, "not above", "without reason",
		"no capture-begin", "stage 3", "non-positive drop count",
	} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lint missed %q in %v", want, problems)
		}
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("empty Tee should be nil")
	}
	var a, b collect
	if got := Tee(nil, &a); got != Tracer(&a) {
		t.Fatal("single-sink Tee should unwrap")
	}
	tee := Tee(&a, &b)
	tee.Emit(Event{Kind: KindCaptureBegin})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("tee fan-out: %d/%d events, want 1/1", len(a.events), len(b.events))
	}
}

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want Query
	}{
		{"Zoom", Query{App: "Zoom"}},
		{"Zoom/udp 10.0", Query{App: "Zoom", Stream: "udp 10.0"}},
		{"Zoom//0x0101", Query{App: "Zoom", MsgType: "0x0101"}},
		{"//0x0101", Query{MsgType: "0x0101"}},
		{"a/b/c/d", Query{App: "a", Stream: "b", MsgType: "c/d"}},
	}
	for _, c := range cases {
		if got := ParseQuery(c.in); got != c.want {
			t.Errorf("ParseQuery(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// traceFixture builds a two-stream trace: one admitted stream with a
// failing verdict, one filtered stream.
func traceFixture() []Event {
	var c collect
	p := New(&c, "Zoom", Sampling{}, nil)
	p.StreamAdmitted("udp A")
	p.StreamFiltered("udp B", 2, "stun-only", "no media followed")
	sp := p.StreamSpan("udp A")
	sp.BeginDatagram()
	sp.Probe(0, 0x00, "", OutcomeShift)
	sp.Probe(1, 0x00, "STUN/TURN", OutcomeMatch)
	sp.Extraction("proprietary header", 1)
	sp.Verdict(1, time.Time{}, "STUN/TURN", "0x0001", 3, "attribute 0x0101 is not defined", 1, []byte{0, 1})
	sp.Flush()
	p.CaptureEnd("done")
	return c.events
}

func TestExplainNamesFailingCriterion(t *testing.T) {
	out := Explain(traceFixture(), ParseQuery("Zoom//0x0001"))
	for _, want := range []string{
		"Zoom / udp A",
		"admitted by the two-stage filter",
		"failed criterion 3 (attribute type validity): attribute 0x0101 is not defined",
		"offending bytes: 0001",
		"matched at offset 1",
		"after 1 one-byte shifts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// The msgtype filter must exclude the filtered stream (no verdicts).
	if strings.Contains(out, "udp B") {
		t.Errorf("msgtype-filtered explain leaked verdict-less stream:\n%s", out)
	}
}

func TestExplainFilteredStream(t *testing.T) {
	out := Explain(traceFixture(), ParseQuery("/udp B"))
	if !strings.Contains(out, `filtered at stage 2 by rule "stun-only" (no media followed)`) {
		t.Errorf("explain missing filter fate:\n%s", out)
	}
}

func TestExplainNoMatchListsStreams(t *testing.T) {
	out := Explain(traceFixture(), ParseQuery("Teams"))
	if !strings.Contains(out, "no trace events match") || !strings.Contains(out, "udp A") {
		t.Errorf("no-match output should list available streams:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	out := Summary(traceFixture())
	if !strings.Contains(out, "1 captures") || !strings.Contains(out, "verdict") {
		t.Errorf("summary output:\n%s", out)
	}
}

func TestCriterionName(t *testing.T) {
	if CriterionName(0) != "compliant" || CriterionName(3) != "attribute type validity" {
		t.Fatal("criterion names drifted")
	}
	if CriterionName(9) != "criterion 9" {
		t.Fatalf("out-of-range name = %q", CriterionName(9))
	}
}
