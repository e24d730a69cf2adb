package obs

import "fmt"

// Lint validates an event stream against the trace invariants the
// exporter guarantees, returning one message per violation (empty =
// clean). rtctrace -lint exposes it; the trace-smoke CI step runs it
// over a real rtccheck -trace-out export.
//
// Invariants checked:
//
//   - every kind belongs to the taxonomy;
//   - every event names a span; child spans name a parent that emitted
//     a capture-begin;
//   - per-span sequence numbers are strictly increasing (gaps are
//     legal: they mark sampled-out events);
//   - kind-specific required fields are present (a probe has an
//     outcome, a filtered stream names its rule, a failing verdict
//     has a criterion in 1-5 and a reason, a truncated marker has a
//     positive drop count).
func Lint(events []Event) []string {
	var problems []string
	bad := func(i int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("event %d: %s", i+1, fmt.Sprintf(format, args...)))
	}
	known := make(map[Kind]bool, len(Kinds))
	for _, k := range Kinds {
		known[k] = true
	}
	captures := map[string]bool{}
	for _, ev := range events {
		if ev.Kind == KindCaptureBegin {
			captures[ev.Span] = true
		}
	}
	lastSeq := map[string]uint64{}
	seen := map[string]bool{}
	for i, ev := range events {
		if !known[ev.Kind] {
			bad(i, "unknown kind %q", ev.Kind)
			continue
		}
		if ev.Span == "" {
			bad(i, "%s: empty span", ev.Kind)
			continue
		}
		if ev.Parent != "" && !captures[ev.Parent] {
			bad(i, "%s: parent span %s has no capture-begin", ev.Kind, ev.Parent)
		}
		if seen[ev.Span] && ev.Seq <= lastSeq[ev.Span] {
			bad(i, "%s: span %s seq %d not above %d", ev.Kind, ev.Span, ev.Seq, lastSeq[ev.Span])
		}
		seen[ev.Span] = true
		lastSeq[ev.Span] = ev.Seq

		switch ev.Kind {
		case KindCaptureBegin, KindCaptureEnd:
			if ev.App == "" {
				bad(i, "%s: missing app", ev.Kind)
			}
		case KindStreamAdmitted, KindStreamEvicted:
			if ev.Stream == "" {
				bad(i, "%s: missing stream", ev.Kind)
			}
		case KindStreamFiltered:
			if ev.Stream == "" {
				bad(i, "%s: missing stream", ev.Kind)
			}
			if ev.Rule == "" {
				bad(i, "%s: missing rule", ev.Kind)
			}
			if ev.Stage != 1 && ev.Stage != 2 {
				bad(i, "%s: stage %d outside 1-2", ev.Kind, ev.Stage)
			}
		case KindProbeAttempt:
			if ev.Outcome != OutcomeMatch && ev.Outcome != OutcomeShift {
				bad(i, "probe: outcome %q not match/shift", ev.Outcome)
			}
			if ev.Outcome == OutcomeMatch && ev.Proto == "" {
				bad(i, "probe: match without protocol")
			}
			if ev.Dgram <= 0 {
				bad(i, "probe: missing datagram ordinal")
			}
		case KindExtraction:
			if ev.Class == "" {
				bad(i, "extraction: missing class")
			}
			if ev.Dgram <= 0 {
				bad(i, "extraction: missing datagram ordinal")
			}
		case KindCriterionVerdict:
			if ev.Criterion < 0 || ev.Criterion > 5 {
				bad(i, "verdict: criterion %d outside 0-5", ev.Criterion)
			}
			if ev.Criterion > 0 && ev.Reason == "" {
				bad(i, "verdict: failing criterion %d without reason", ev.Criterion)
			}
			if ev.MsgType == "" {
				bad(i, "verdict: missing message type")
			}
		case KindFindingEmitted:
			if ev.Rule == "" {
				bad(i, "finding: missing kind")
			}
		case KindTruncated:
			if ev.Dropped <= 0 {
				bad(i, "truncated: non-positive drop count %d", ev.Dropped)
			}
		}
	}
	return problems
}
