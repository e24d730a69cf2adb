package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Query selects the decisions to explain: app/stream/msgtype, each an
// optional case-insensitive substring. The empty string matches
// everything at that level.
type Query struct {
	App     string
	Stream  string
	MsgType string
}

// ParseQuery parses the "<app>/<stream>/<msgtype>" form used by
// rtccheck -explain and rtctrace -explain. Trailing components may be
// omitted ("Zoom", "Zoom/udp 10.0", "Zoom//0x0101" are all valid).
func ParseQuery(s string) Query {
	parts := strings.SplitN(s, "/", 3)
	var q Query
	q.App = strings.TrimSpace(parts[0])
	if len(parts) > 1 {
		q.Stream = strings.TrimSpace(parts[1])
	}
	if len(parts) > 2 {
		q.MsgType = strings.TrimSpace(parts[2])
	}
	return q
}

func matches(needle, hay string) bool {
	return needle == "" || strings.Contains(strings.ToLower(hay), strings.ToLower(needle))
}

// streamTrace is the reassembled decision chain of one stream span.
type streamTrace struct {
	app    string
	stream string
	events []Event
}

// Explain replays an event chain and answers why: why a stream was
// filtered (stage + rule), why a datagram classified as it did (the
// probe steps that shifted or matched), and why a message was judged
// non-compliant (the failing criterion 1-5, by number and name, with
// the reason and offending bytes). It renders a human-readable report
// for every stream matching q; when nothing matches it lists what the
// trace contains so the caller can refine the query.
func Explain(events []Event, q Query) string {
	var b strings.Builder

	// Capture span ID → app label.
	apps := map[string]string{}
	for _, ev := range events {
		if ev.Kind == KindCaptureBegin {
			apps[ev.Span] = ev.App
		}
	}
	appOf := func(ev Event) string {
		if ev.Parent != "" {
			return apps[ev.Parent]
		}
		return apps[ev.Span]
	}

	// Group stream-scoped events by span, preserving order; capture-
	// scoped stream events (admitted/filtered/...) are attributed to
	// the stream they name.
	order := []string{}
	traces := map[string]*streamTrace{}
	add := func(key string, ev Event) {
		t := traces[key]
		if t == nil {
			t = &streamTrace{app: appOf(ev), stream: ev.Stream}
			traces[key] = t
			order = append(order, key)
		}
		t.events = append(t.events, ev)
	}
	for _, ev := range events {
		if ev.Stream == "" {
			continue
		}
		// Key by app+stream so identical 5-tuples in different
		// captures stay separate.
		add(appOf(ev)+"\x00"+ev.Stream, ev)
	}

	matched := 0
	for _, key := range order {
		t := traces[key]
		if !matches(q.App, t.app) || !matches(q.Stream, t.stream) {
			continue
		}
		sec := explainStream(t, q.MsgType)
		if sec == "" {
			continue
		}
		matched++
		b.WriteString(sec)
	}

	if matched == 0 {
		b.WriteString("no trace events match the query\n")
		if len(order) > 0 {
			b.WriteString("streams in this trace:\n")
			for _, key := range order {
				t := traces[key]
				fmt.Fprintf(&b, "  %s / %s\n", t.app, t.stream)
			}
		} else {
			b.WriteString("(trace contains no stream-scoped events)\n")
		}
	}
	return b.String()
}

// explainStream renders one stream's decision chain. msgType filters
// the verdict section; when set and no verdict matches, the stream is
// skipped entirely (returns "").
func explainStream(t *streamTrace, msgType string) string {
	var verdicts, failing []Event
	classes := map[string]int{}
	messages := 0
	dgrams := 0
	truncated := 0
	var fate []string
	for _, ev := range t.events {
		switch ev.Kind {
		case KindStreamAdmitted:
			fate = append(fate, "admitted by the two-stage filter as provisional RTC traffic")
		case KindStreamFiltered:
			s := fmt.Sprintf("filtered at stage %d by rule %q", ev.Stage, ev.Rule)
			if ev.Detail != "" {
				s += " (" + ev.Detail + ")"
			}
			fate = append(fate, s)
		case KindStreamEvicted:
			fate = append(fate, "evicted while idle (chunked finalization)")
		case KindExtraction:
			classes[ev.Class]++
			messages += ev.Messages
			if ev.Dgram > dgrams {
				dgrams = ev.Dgram
			}
		case KindCriterionVerdict:
			if !matches(msgType, ev.MsgType) {
				continue
			}
			verdicts = append(verdicts, ev)
			if ev.Criterion > 0 {
				failing = append(failing, ev)
			}
		case KindTruncated:
			truncated += ev.Dropped
		}
	}
	if msgType != "" && len(verdicts) == 0 {
		return ""
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s\n", t.app, t.stream)
	for _, f := range fate {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	if len(classes) > 0 {
		keys := make([]string, 0, len(classes))
		for k := range classes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s ×%d", k, classes[k]))
		}
		fmt.Fprintf(&b, "  extraction (%d datagrams traced, %d standard messages): %s\n",
			dgrams, messages, strings.Join(parts, ", "))
	}
	if len(verdicts) > 0 {
		fmt.Fprintf(&b, "  verdicts traced: %d (%d non-compliant)\n", len(verdicts), len(failing))
	}
	for _, ev := range failing {
		fmt.Fprintf(&b, "  NON-COMPLIANT %s message type %s", ev.Proto, ev.MsgType)
		if ev.Dgram > 0 {
			fmt.Fprintf(&b, " (datagram %d, offset %d)", ev.Dgram, ev.Offset)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "    failed criterion %d (%s): %s\n",
			ev.Criterion, CriterionName(ev.Criterion), ev.Reason)
		if ev.Bytes != "" {
			fmt.Fprintf(&b, "    offending bytes: %s\n", ev.Bytes)
		}
		if ev.TS != "" {
			fmt.Fprintf(&b, "    captured at %s\n", ev.TS)
		}
		explainDgram(&b, t.events, ev.Dgram)
	}
	if truncated > 0 {
		fmt.Fprintf(&b, "  note: sampling dropped %d events from this stream (head/tail policy); failing verdicts are always kept\n", truncated)
	}
	b.WriteString("\n")
	return b.String()
}

// explainDgram prints the probe steps traced for one datagram — how
// Algorithm 1 arrived at the message the verdict judged.
func explainDgram(b *strings.Builder, events []Event, dgram int) {
	if dgram <= 0 {
		return
	}
	var probes []Event
	for _, ev := range events {
		if ev.Kind == KindProbeAttempt && ev.Dgram == dgram {
			probes = append(probes, ev)
		}
	}
	if len(probes) == 0 {
		return
	}
	shifts := 0
	for _, p := range probes {
		if p.Outcome == OutcomeShift {
			shifts++
			continue
		}
		fmt.Fprintf(b, "    probe: %s matched at offset %d (first byte 0x%s)", p.Proto, p.Offset, p.First)
		if shifts > 0 {
			fmt.Fprintf(b, " after %d one-byte shifts", shifts)
			shifts = 0
		}
		b.WriteString("\n")
	}
	if shifts > 0 {
		fmt.Fprintf(b, "    probe: %d trailing one-byte shifts without a match\n", shifts)
	}
}

// Summary renders per-capture aggregate statistics of a trace: event
// counts by kind plus stream admission totals. rtctrace's default mode.
func Summary(events []Event) string {
	byKind := map[Kind]int{}
	spans := map[string]bool{}
	apps := map[string]bool{}
	for _, ev := range events {
		byKind[ev.Kind]++
		spans[ev.Span] = true
		if ev.Kind == KindCaptureBegin {
			apps[ev.App] = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d events, %d spans, %d captures\n", len(events), len(spans), len(apps))
	for _, k := range Kinds {
		if n := byKind[k]; n > 0 {
			fmt.Fprintf(&b, "  %-20s %d\n", k, n)
		}
	}
	return b.String()
}
