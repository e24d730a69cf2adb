package core

import "github.com/rtc-compliance/rtcc/internal/layers"

// analyzeSharded is AnalyzeCapture on n shards, the shape of the
// sharded ingest tier without its queues (core cannot import
// internal/ingest): each frame goes by flow fingerprint onto one of n
// ExternalSeq analyzers with its capture-global sequence, and
// MergeAnalyzers finalizes the union on n goroutines. On one shard it
// is the plain Analyzer, as in the pipeline. The N-way differential
// cases run through it, since a single Analyzer has no other
// parallelism.
func analyzeSharded(in CaptureInput, opts Options, n int) (*CaptureAnalysis, error) {
	if n == 1 {
		return AnalyzeCapture(in, opts)
	}
	cfg := AnalyzerConfig{
		Label: in.Label, LinkType: in.LinkType,
		CallStart: in.CallStart, CallEnd: in.CallEnd,
		FramesStable: true, ExternalSeq: true,
	}
	shards := make([]*Analyzer, n)
	batches := make([][]Datagram, n)
	for i := range shards {
		a, err := NewAnalyzer(cfg, opts)
		if err != nil {
			return nil, err
		}
		shards[i] = a
	}
	var pkt layers.Packet
	for i, p := range in.Packets {
		seq := uint64(i + 1)
		fp, ok := layers.FlowFingerprint(in.LinkType, p.Data)
		if !ok && layers.DecodeInto(&pkt, in.LinkType, p.Data) == nil {
			fp, ok = layers.FingerprintPacket(&pkt)
		}
		k := seq % uint64(n)
		if ok {
			k = fp % uint64(n)
		}
		batches[k] = append(batches[k], Datagram{Timestamp: p.Timestamp, Frame: p.Data, Seq: seq})
	}
	for i, a := range shards {
		if err := a.FeedBatch(batches[i]); err != nil {
			return nil, err
		}
	}
	return MergeAnalyzers(shards)
}
