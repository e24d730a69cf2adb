package ingest

import "github.com/rtc-compliance/rtcc/internal/core"

// NewShaped is New with an explicit queue shape, depth batches of batch
// datagrams per shard, so tests can make back-pressure certain.
func NewShaped(acfg core.AnalyzerConfig, opts core.Options, cfg Config, depth, batch int) (*ShardedAnalyzer, error) {
	return newTier(acfg, opts, cfg, depth, batch)
}
