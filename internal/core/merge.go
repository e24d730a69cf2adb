package core

import (
	"errors"
	"fmt"
	"sort"
)

// MergeAnalyzers folds N fed (but not yet closed) Analyzer shards into
// one capture analysis. It is the cross-shard half of the sharded
// ingest tier (internal/ingest): the router hashes datagrams by flow
// 5-tuple onto single-writer shards, and this merge reunifies their
// state before any cross-stream decision is made.
//
// Requirements, all guaranteed by the sharded router:
//
//   - every shard was built from the same AnalyzerConfig and Options;
//   - each flow key was fed to exactly one shard (a duplicate key is
//     reported as a misrouting error);
//   - the shards ran under ExternalSeq with a capture-global arrival
//     sequence, so the merged stream table can be rebuilt in the exact
//     insertion order a serial analyzer would have used.
//
// The merge constructs a synthetic Analyzer holding the union of the
// shard state — stream table with its 3-tuple spans, per-stream
// pipeline state and trace spans, frame tallies — and then runs the
// very finalize step Close runs, with the surviving streams fanned out
// over one goroutine per shard. Per-shard online filter verdicts are
// safe to carry over because every online rule is monotone on evidence
// that only grows from shard to union; the final two-stage filter then
// re-judges every stream against the full merged evidence. The result is therefore byte-identical to a serial Analyzer
// fed the same datagrams in Seq order — by construction, not by testing
// alone.
//
// The shards are consumed: their state now belongs to the merged
// analysis and they are marked closed.
func MergeAnalyzers(shards []*Analyzer) (*CaptureAnalysis, error) {
	if len(shards) == 0 {
		return nil, errors.New("core: MergeAnalyzers needs at least one shard")
	}
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("core: MergeAnalyzers: shard %d is nil", i)
		}
		if sh.closed {
			return nil, fmt.Errorf("core: MergeAnalyzers: shard %d already closed", i)
		}
	}
	if len(shards) == 1 {
		// One shard holds the whole capture; its own Close is already
		// the serial path.
		return shards[0].Close()
	}
	base := shards[0]
	if !base.cfg.ExternalSeq {
		return nil, errors.New("core: MergeAnalyzers requires ExternalSeq shards (capture-global arrival order)")
	}
	for i, sh := range shards[1:] {
		c, b := sh.cfg, base.cfg
		if c.Label != b.Label || c.LinkType != b.LinkType ||
			!c.CallStart.Equal(b.CallStart) || !c.CallEnd.Equal(b.CallEnd) ||
			c.ExternalSeq != b.ExternalSeq {
			return nil, fmt.Errorf("core: MergeAnalyzers: shard %d config differs from shard 0", i+1)
		}
	}

	m, err := NewAnalyzer(base.cfg, base.opts)
	if err != nil {
		return nil, err
	}
	m.closed = true
	for _, sh := range shards {
		sh.closed = true // the merge consumes the shard state
		m.frames += sh.frames
		m.decodeErrs += sh.decodeErrs
		if sh.frames == 0 {
			continue
		}
		if m.firstSeq == 0 || sh.firstSeq < m.firstSeq {
			m.firstSeq, m.firstTS = sh.firstSeq, sh.firstTS
		}
		if sh.lastSeq > m.lastSeq {
			m.lastSeq, m.lastTS = sh.lastSeq, sh.lastTS
		}
	}

	// The 3-tuple span union first, so stream absorption can re-point
	// each stream's per-direction span memos at the merged spans. The
	// shards' other online evidence (the pre-call address pairs) is not
	// carried over: finalize's filter rebuilds its evidence from the
	// merged table.
	for _, sh := range shards {
		m.table.AbsorbSpans(sh.table)
	}

	// Rebuild the serial insertion order: each stream was created by
	// exactly one datagram, whose capture-global Seq its owning shard
	// recorded as the stream's birth. Sorting the union by birth is
	// exactly the order a serial table would have appended in.
	var states []*streamState
	for _, sh := range shards {
		for _, st := range sh.states {
			states = append(states, st)
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i].birth < states[j].birth })
	for _, st := range states {
		if err := m.table.AbsorbStream(st.s); err != nil {
			return nil, err
		}
		// The merged analyzer's pipeline flushes every span, so the
		// capture begins once, not once per shard.
		st.span.Adopt(m.trace)
		m.states[st.s.Key] = st
	}
	// Every shard goroutine has drained, so the surviving streams fan
	// out over one goroutine per shard: the shard count is the one
	// per-capture parallelism setting.
	return m.finalize(len(shards))
}
