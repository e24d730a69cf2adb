package proto

// ScanPlan is one pass's scan plan over its probers in precedence
// order: one lane per prober's gate, the anchors of the gates that pin
// bytes 4-7, the readiness tests, and the validated-SSRC anchors. Each
// is a necessary condition of its prober and may only reject; the
// prober still confirms every hit. A prober without a gate has a lane
// that admits every offset, so a plan with one walks every offset.
//
// A walk skips the lanes of the anchored gates, of the probers not
// ready, and of the SSRC anchors it searches for by word; the plan
// builds the live lanes of each combination of those once.
type ScanPlan struct {
	probers []Prober
	lanes   Lanes
	anchors []anchor
	ready   []readyTest
	ssrc    []ssrcAnchor
}

type readyTest struct {
	lane  int
	ready func(*StreamState) bool
}

type ssrcAnchor struct{ lane, at int }

func newScanPlan(probers []Prober) ScanPlan {
	gates := make([]Gate, len(probers))
	p := ScanPlan{probers: probers}
	var skippable uint64
	for k, pr := range probers {
		gates[k] = pr.Gate
		if pr.Ready != nil {
			p.ready = append(p.ready, readyTest{k, pr.Ready})
			skippable |= 1 << k
		}
		if pr.SSRCAt != 0 {
			p.ssrc = append(p.ssrc, ssrcAnchor{k, pr.SSRCAt})
			skippable |= 1 << k
		}
	}
	p.anchors = anchorsOf(gates)
	for _, a := range p.anchors {
		skippable |= 1 << a.lane
	}
	p.lanes = NewLanes(skippable, gates...)
	return p
}

// Probers lists the plan's probers in precedence order. Callers must
// not mutate the returned slice.
func (p *ScanPlan) Probers() []Prober { return p.probers }

// Walk is one walk of a scan plan over a payload (in pass 2, over one
// region): a lane cursor for the probers the plan tests by lane, and a
// word cursor per anchor. The engine keeps one per stream and reuses
// it, so starting a walk allocates nothing once its word cursors have
// grown.
type Walk struct {
	lanes cursor
	words []wordCursor
	b     []byte
	end   int
}

// wordCursor tracks one anchored word: the least offset at or after
// the walk's last from that carries word at +at (next, or -1 before
// the first search). A gate's anchor counts words completed by zero
// padding, as its window does.
type wordCursor struct {
	word [4]byte
	at   int
	gate bool
	next int
}

func (c *wordCursor) find(b []byte, from, end int) int {
	if c.gate {
		return anchor{word: c.word}.next(b, from, end)
	}
	return NextWord(b, c.word, c.at, from, end)
}

// Begin starts w over the offsets of b below end, in stream state st.
// The state the plan reads must not change until the walk ends; it
// changes only when a prober matches, which ends a region.
func (p *ScanPlan) Begin(w *Walk, b []byte, end int, st *StreamState) {
	var skip uint64
	for _, r := range p.ready {
		if !r.ready(st) {
			skip |= 1 << r.lane
		}
	}
	w.words = w.words[:0]
	for _, a := range p.anchors {
		if skip>>a.lane&1 == 0 {
			skip |= 1 << a.lane
			w.words = append(w.words, wordCursor{word: a.word, at: 4, gate: true, next: -1})
		}
	}
	if len(p.ssrc) > 0 && st.ValidatedSSRC != nil {
		if words, ok := st.ValidatedWords(); ok {
			for _, s := range p.ssrc {
				if skip>>s.lane&1 != 0 {
					continue
				}
				skip |= 1 << s.lane
				for _, word := range words {
					w.words = append(w.words, wordCursor{word: word, at: s.at, next: -1})
				}
			}
		}
	}
	w.lanes.Reset(p.lanes, b, end, skip)
	w.b, w.end = b, end
}

// Next returns the least offset o with from <= o < end where some
// prober could act, or end. Successive calls must not decrease from.
// Every offset it passes over is one where every prober of the plan
// would reject.
func (w *Walk) Next(from int) int {
	o := w.lanes.Next(from)
	for k := range w.words {
		c := &w.words[k]
		if c.next < from {
			c.next = c.find(w.b, from, w.end)
		}
		o = min(o, c.next)
	}
	return o
}
