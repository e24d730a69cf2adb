package dpi

import (
	"bytes"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/obs"
)

// tracedContext builds a stream context wired to a span whose sampling
// is wide enough to keep every event, plus the buffer to read them
// back after Flush.
func tracedContext() (*StreamContext, *obs.Span, *obs.Buffer) {
	buf := obs.NewBuffer(0)
	p := obs.New(buf, "app", obs.Sampling{Head: 1 << 16, Tail: 1}, nil)
	sp := p.StreamSpan("st")
	ctx := NewStreamContext()
	ctx.Span = sp
	return ctx, sp, buf
}

// TestInspectTracedMatchesUntraced pins zero interference at the DPI
// layer: attaching a span must not change extraction output.
func TestInspectTracedMatchesUntraced(t *testing.T) {
	corpus := dispatchCorpus()

	e := NewEngine()
	ctx := NewStreamContext()
	var plain []Result
	for _, p := range corpus {
		plain = append(plain, e.Inspect(p, ctx))
	}

	te := NewEngine()
	tctx, sp, _ := tracedContext()
	var traced []Result
	for _, p := range corpus {
		traced = append(traced, te.Inspect(p, tctx))
	}
	sp.Flush()

	if g, w := summarize(traced), summarize(plain); g != w {
		t.Fatalf("tracing changed extraction:\ntraced:   %s\nuntraced: %s", g, w)
	}
}

// TestInspectTraceEvents checks the event stream Inspect emits: one
// extraction per datagram with 1-based ordinals, one match probe per
// extracted message (carrying the protocol name), and a shift probe
// for every offset the cursor advanced over.
func TestInspectTraceEvents(t *testing.T) {
	corpus := dispatchCorpus()
	e := NewEngine()
	ctx, sp, buf := tracedContext()
	messages := 0
	for _, p := range corpus {
		messages += len(e.Inspect(p, ctx).Messages)
	}
	sp.Flush()
	events := buf.Events()

	matches, shifts := 0, 0
	var extractions []int
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindProbeAttempt:
			switch ev.Outcome {
			case obs.OutcomeMatch:
				matches++
				if ev.Proto == "" {
					t.Errorf("match probe without protocol name: %+v", ev)
				}
			case obs.OutcomeShift:
				shifts++
			default:
				t.Errorf("probe outcome %q", ev.Outcome)
			}
			if ev.Dgram < 1 || ev.Dgram > len(corpus) {
				t.Errorf("probe dgram %d outside 1-%d", ev.Dgram, len(corpus))
			}
		case obs.KindExtraction:
			extractions = append(extractions, ev.Dgram)
			if ev.Class == "" {
				t.Errorf("extraction without class: %+v", ev)
			}
		}
	}
	if matches != messages {
		t.Errorf("match probes = %d, want one per extracted message (%d)", matches, messages)
	}
	// The fully-proprietary filler alone walks >100 offsets.
	if shifts < 100 {
		t.Errorf("shift probes = %d, want >= 100 (filler datagram)", shifts)
	}
	if len(extractions) != len(corpus) {
		t.Fatalf("extraction events = %d, want one per datagram (%d)", len(extractions), len(corpus))
	}
	for i, dgram := range extractions {
		if dgram != i+1 {
			t.Errorf("extraction %d has ordinal %d, want %d", i, dgram, i+1)
		}
	}
	if problems := obs.Lint(events); len(problems) > 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

// TestNilTracerProbePathAllocationFree pins the disabled-tracing cost
// on the probe hot path: with no span attached (the default), scanning
// a fully proprietary datagram must not allocate — the tracing hook is
// one nil check. TestProbePathAllocationFree covers the same invariant
// for a default context; this one makes the contract explicit against
// the obs integration.
func TestNilTracerProbePathAllocationFree(t *testing.T) {
	filler := bytes.Repeat([]byte{0x01}, 1000)
	e := NewEngine()
	ctx := NewStreamContext()
	if ctx.Span != nil {
		t.Fatal("default StreamContext must have no span")
	}
	e.Inspect(filler, ctx)
	if avg := testing.AllocsPerRun(100, func() {
		e.Inspect(filler, ctx)
	}); avg != 0 {
		t.Errorf("nil-tracer probe path allocates: %.1f allocs/op, want 0", avg)
	}
}

// TestNilTracerOverheadBounded compares the nil-tracer probe path
// against the frozen pre-registry baseline on the probe-miss worst
// case. The tracing hook adds one predictable branch per datagram scan
// (≈0% — measure precisely with the BenchmarkDispatchProbeMiss*
// pair); the generous bound here only catches gross regressions, e.g.
// an accidental per-probe interface call, without being flaky under
// CI scheduling noise.
func TestNilTracerOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	filler := bytes.Repeat([]byte{0x01}, 1000)
	const rounds, iters = 5, 2000

	e := NewEngine()
	ctx := NewStreamContext()
	e.Inspect(filler, ctx)
	be := &baselineEngine{MaxOffset: 200}
	bctx := newBaselineContext()
	be.Inspect(filler, bctx)

	best := func(f func()) time.Duration {
		min := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	registry := best(func() { e.Inspect(filler, ctx) })
	baseline := best(func() { be.Inspect(filler, bctx) })
	if float64(registry) > 1.5*float64(baseline) {
		t.Errorf("nil-tracer probe path %v vs frozen baseline %v (>1.5x)", registry, baseline)
	}
	t.Logf("probe miss: registry+nil-tracer %v, frozen baseline %v", registry, baseline)
}

// BenchmarkDispatchProbeMissTraced is the traced counterpart of
// BenchmarkDispatchProbeMiss: same worst-case datagram with a span
// attached, measuring the full cost of probe-step emission under the
// head/tail sampling policy. Compare:
//
//	go test ./internal/dpi -run=^$ -bench=BenchmarkDispatchProbeMiss -benchmem
func BenchmarkDispatchProbeMissTraced(b *testing.B) {
	filler := bytes.Repeat([]byte{0x01}, 1000)
	e := NewEngine()
	ctx, _, _ := tracedContext()
	e.Inspect(filler, ctx)
	b.ReportAllocs()
	b.SetBytes(int64(len(filler)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Inspect(filler, ctx)
	}
}

// TestStreamTraceMatchesReference pins the decision trace of pass 2's
// scan plan: over every FuzzStreamParity seed, a traced InspectStream
// emits exactly the events of the per-offset reference walk, which is
// one shift probe per offset the cursor passes, the same match probes,
// and the same extraction events.
func TestStreamTraceMatchesReference(t *testing.T) {
	e := NewEngine()
	span := func() (*obs.Span, *obs.Buffer) {
		buf := obs.NewBuffer(0)
		p := obs.New(buf, "app", obs.Sampling{Head: 1 << 20, Tail: 1}, nil)
		return p.StreamSpan("st"), buf
	}
	for k, s := range streamSeeds() {
		stream := [][]byte{s[0], s[1], s[2]}
		for _, p := range [][]byte{s[3], s[4]} {
			if len(p) > 0 {
				stream = append(stream, p)
			}
		}
		refSpan, refBuf := span()
		referenceInspectStream(e, stream, refSpan)
		refSpan.Flush()

		gotSpan, gotBuf := span()
		si := e.NewStreamInspector()
		si.SetSpan(gotSpan)
		feedRecords(t, si, stream)
		gotSpan.Flush()

		got, want := gotBuf.Events(), refBuf.Events()
		if len(want) == 0 {
			t.Fatalf("seed %d: the reference emitted no events", k)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events, the reference %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d is %+v, the reference's %+v", k, i, got[i], want[i])
			}
		}
	}
}
