// Package ingest is the sharded ingest tier over the streaming
// analyzer: one concurrency story from collector to verdict.
//
// A single-producer router hashes each datagram by its flow 5-tuple
// (direction-invariant, so both halves of a conversation agree) onto N
// single-writer core.Analyzer shards. Each shard is fed through a
// bounded queue of recycled batches via FeedBatch — the same zero-copy
// hot path the serial pipeline uses — and Close reunifies the shard
// states with core.MergeAnalyzers, whose result is byte-identical to
// one serial Analyzer fed the same datagrams in arrival order (see
// DESIGN.md §15 for the ownership, ordering, and merge rules).
//
// Back-pressure is explicit: a full shard queue either stalls the
// producer (Block, the lossless default) or sheds the staged batch
// (Drop), and both outcomes are accounted — per-shard queue-depth
// gauges, drop and back-pressure counters in the metrics registry, and
// a Stats snapshot that conserves datagrams (fed = analyzed + dropped
// once the queues drain).
package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
)

// Policy selects what a full shard queue does to the producer.
type Policy uint8

const (
	// Block stalls the producer until the shard drains: lossless, the
	// default, and the right choice for file analysis where the reader
	// can wait.
	Block Policy = iota
	// Drop sheds the staged batch and counts every datagram in it: the
	// live-capture choice, where stalling the producer would drop
	// packets upstream invisibly instead.
	Drop
)

// String names the policy as the pipeline config spells it.
func (p Policy) String() string {
	if p == Drop {
		return "drop"
	}
	return "block"
}

// Config parameterizes the sharded tier. The zero value selects one
// shard per CPU, a queue depth of 8 batches, and 64-datagram batches
// with lossless back-pressure.
type Config struct {
	// Shards is the number of single-writer Analyzer shards; 0 selects
	// one per CPU (GOMAXPROCS). 1 is valid and degenerates to a serial
	// Analyzer behind the same API.
	Shards int
	// QueueDepth bounds each shard's pending batch queue; 0 selects 8.
	// Together with BatchSize it caps the datagrams in flight per
	// shard, which is what makes ingest memory independent of capture
	// size.
	QueueDepth int
	// BatchSize is how many datagrams the router stages per shard
	// before enqueueing; 0 selects 64, matching the serial reader ring.
	BatchSize int
	// Policy selects the back-pressure behavior when a shard queue is
	// full: Block (lossless, default) or Drop.
	Policy Policy
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 8
}

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 64
}

// batchBuf is one unit of the router→shard queue: a slice of datagrams
// plus (in copy mode) the backing frame bytes. Buffers recycle through
// each shard's free list, so the steady state allocates nothing. A
// non-nil barrier marks a synchronization batch: the worker closes it
// instead of feeding.
type batchBuf struct {
	dgrams  []core.Datagram
	buf     []byte
	offs    []int
	barrier chan struct{}
}

func (b *batchBuf) reset() {
	b.dgrams = b.dgrams[:0]
	b.buf = b.buf[:0]
	b.offs = b.offs[:0]
}

// shard is one single-writer Analyzer with its feeding machinery. Only
// the worker goroutine touches a; the router only touches stage and
// the channels; the counters are atomic for Stats snapshots.
type shard struct {
	a     *core.Analyzer
	queue chan *batchBuf
	free  chan *batchBuf
	stage *batchBuf
	done  chan struct{}
	// err is the worker's first FeedBatch error; the worker keeps
	// draining (and recycling) after an error so the router never
	// deadlocks on a full queue.
	err error

	enqueued     atomic.Uint64
	analyzed     atomic.Uint64
	dropped      atomic.Uint64
	backpressure atomic.Uint64
	pending      atomic.Int64

	m shardMetrics
}

// run is the shard worker: it feeds queued batches to the analyzer in
// arrival order and recycles their buffers. It exits when the router
// closes the queue at Close.
func (sh *shard) run() {
	defer close(sh.done)
	for b := range sh.queue {
		if b.barrier != nil {
			close(b.barrier)
			continue
		}
		n := uint64(len(b.dgrams))
		if sh.err == nil {
			if err := sh.a.FeedBatch(b.dgrams); err != nil {
				sh.err = err
			} else {
				sh.analyzed.Add(n)
				sh.m.analyzed.Add(n)
			}
		}
		sh.pending.Add(-1)
		sh.m.depth.Add(-1)
		b.reset()
		select {
		case sh.free <- b:
		default:
		}
	}
}

// ShardedAnalyzer routes datagrams onto N single-writer Analyzer
// shards and merges their states at Close. It implements
// core.FrameSink, so every capture reader that drives an Analyzer can
// drive it instead. Feed/FeedBatch/Flush/Close are single-producer:
// one goroutine owns ingestion, exactly as with a plain Analyzer (the
// shard workers are an internal concern).
type ShardedAnalyzer struct {
	cfg    Config
	acfg   core.AnalyzerConfig
	shards []*shard
	seq    uint64
	stable bool
	closed bool
	pkt    layers.Packet // decode scratch for the routing slow path
	m      ingestMetrics

	fed atomic.Uint64
}

// New builds the sharded tier: cfg.Shards analyzers constructed from
// acfg (each flipped to ExternalSeq; the router stamps the
// capture-global sequence) and opts. Tracing is disabled — the shards
// would interleave nondeterministically on one sink, the same reason
// RunMatrix does not trace; analyze serially to trace. The returned
// analyzer must be fed from one goroutine.
func New(acfg core.AnalyzerConfig, opts core.Options, cfg Config) (*ShardedAnalyzer, error) {
	if acfg.ExternalSeq {
		return nil, errors.New("ingest: AnalyzerConfig.ExternalSeq is owned by the sharded router")
	}
	opts.Tracer = nil
	n := cfg.shards()
	depth := cfg.queueDepth()
	s := &ShardedAnalyzer{
		cfg:    cfg,
		acfg:   acfg,
		stable: acfg.FramesStable,
		shards: make([]*shard, n),
		m:      newIngestMetrics(opts.Metrics, acfg.Label, n),
	}
	shardCfg := acfg
	shardCfg.ExternalSeq = true
	for i := range s.shards {
		a, err := core.NewAnalyzer(shardCfg, opts)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			a:     a,
			queue: make(chan *batchBuf, depth),
			free:  make(chan *batchBuf, depth+2),
			done:  make(chan struct{}),
			m:     newShardMetrics(opts.Metrics, acfg.Label, i),
		}
		s.shards[i] = sh
		go sh.run()
	}
	return s, nil
}

// route picks the owning shard for a frame. The fast fingerprint reads
// the 5-tuple at fixed offsets; frames it declines are fully decoded,
// and frames without a routable transport (undecodable, or no UDP/TCP
// layer) spread round-robin by arrival — they never form a flow, so
// any deterministic placement preserves the merge invariants (each
// shard still counts them toward frames/decode errors).
func (s *ShardedAnalyzer) route(frame []byte) *shard {
	n := uint64(len(s.shards))
	if fp, ok := layers.FlowFingerprint(s.acfg.LinkType, frame); ok {
		return s.shards[fp%n]
	}
	if err := layers.DecodeInto(&s.pkt, s.acfg.LinkType, frame); err == nil {
		if fp, ok := layers.FingerprintPacket(&s.pkt); ok {
			return s.shards[fp%n]
		}
	}
	return s.shards[s.seq%n]
}

// Feed routes one frame. See FeedBatch for the batched path.
func (s *ShardedAnalyzer) Feed(ts time.Time, frame []byte) error {
	return s.feedOne(ts, frame)
}

// FeedBatch routes a slice of frames onto their owning shards. Unless
// the tier was configured with FramesStable, every frame is copied
// into a staging buffer before FeedBatch returns, so callers may reuse
// their frame buffers between calls — the Analyzer.FeedBatch contract.
func (s *ShardedAnalyzer) FeedBatch(batch []core.Datagram) error {
	if s.closed {
		return errors.New("ingest: Feed after Close")
	}
	for i := range batch {
		if err := s.feedOne(batch[i].Timestamp, batch[i].Frame); err != nil {
			return err
		}
	}
	return nil
}

func (s *ShardedAnalyzer) feedOne(ts time.Time, frame []byte) error {
	if s.closed {
		return errors.New("ingest: Feed after Close")
	}
	s.seq++
	s.fed.Add(1)
	s.m.fed.Inc()
	sh := s.route(frame)
	b := sh.stage
	if b == nil {
		b = s.getBuf(sh)
		sh.stage = b
	}
	if s.stable {
		b.dgrams = append(b.dgrams, core.Datagram{Timestamp: ts, Frame: frame, Seq: s.seq})
	} else {
		// Copy now, materialize the Frame slices at enqueue time: the
		// backing buffer may still grow (and move) while the batch
		// stages.
		b.offs = append(b.offs, len(b.buf))
		b.buf = append(b.buf, frame...)
		b.dgrams = append(b.dgrams, core.Datagram{Timestamp: ts, Seq: s.seq})
	}
	if len(b.dgrams) >= s.cfg.batchSize() {
		s.flushShard(sh)
	}
	return nil
}

// getBuf takes a recycled batch buffer or allocates one. Allocation is
// naturally bounded: per shard at most queueDepth queued + 1 in the
// worker + 1 staging buffers exist, after which the free list always
// has one to give.
func (s *ShardedAnalyzer) getBuf(sh *shard) *batchBuf {
	select {
	case b := <-sh.free:
		return b
	default:
		size := s.cfg.batchSize()
		return &batchBuf{
			dgrams: make([]core.Datagram, 0, size),
			offs:   make([]int, 0, size),
		}
	}
}

// flushShard enqueues the shard's staged batch, applying the
// back-pressure policy when the queue is full.
func (s *ShardedAnalyzer) flushShard(sh *shard) {
	b := sh.stage
	if b == nil || len(b.dgrams) == 0 {
		return
	}
	sh.stage = nil
	if !s.stable {
		for i := range b.dgrams {
			end := len(b.buf)
			if i+1 < len(b.offs) {
				end = b.offs[i+1]
			}
			b.dgrams[i].Frame = b.buf[b.offs[i]:end]
		}
	}
	n := uint64(len(b.dgrams))
	select {
	case sh.queue <- b:
	default:
		if s.cfg.Policy == Drop {
			sh.dropped.Add(n)
			sh.m.dropped.Add(n)
			b.reset()
			select {
			case sh.free <- b:
			default:
			}
			return
		}
		sh.backpressure.Add(1)
		sh.m.backpressure.Inc()
		sh.queue <- b
	}
	sh.enqueued.Add(n)
	sh.pending.Add(1)
	sh.m.depth.Add(1)
}

// Flush pushes all staged batches to their shards and waits until
// every shard has processed everything enqueued so far, then reports
// the first shard error. It does not finalize anything — feeding may
// continue — which is what lets benchmarks time the ingest tier to
// quiescence without timing the merge.
func (s *ShardedAnalyzer) Flush() error {
	if s.closed {
		return errors.New("ingest: Flush after Close")
	}
	for _, sh := range s.shards {
		s.flushShard(sh)
	}
	barriers := make([]chan struct{}, len(s.shards))
	for i, sh := range s.shards {
		barriers[i] = make(chan struct{})
		sh.queue <- &batchBuf{barrier: barriers[i]}
	}
	for _, c := range barriers {
		<-c
	}
	return s.firstErr()
}

func (s *ShardedAnalyzer) firstErr() error {
	for i, sh := range s.shards {
		if sh.err != nil {
			return fmt.Errorf("ingest: shard %d: %w", i, sh.err)
		}
	}
	return nil
}

// Close flushes the remaining staged batches, joins the shard workers,
// and merges the shard states into the capture analysis via
// core.MergeAnalyzers — the same finalization a serial Close runs,
// over the union of the shards' state.
func (s *ShardedAnalyzer) Close() (*core.CaptureAnalysis, error) {
	if s.closed {
		return nil, errors.New("ingest: Close called twice")
	}
	s.closed = true
	for _, sh := range s.shards {
		s.flushShard(sh)
	}
	for _, sh := range s.shards {
		close(sh.queue)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	if err := s.firstErr(); err != nil {
		return nil, err
	}
	analyzers := make([]*core.Analyzer, len(s.shards))
	for i, sh := range s.shards {
		analyzers[i] = sh.a
	}
	return core.MergeAnalyzers(analyzers)
}

// ShardStats is one shard's datagram accounting.
type ShardStats struct {
	// Enqueued counts datagrams accepted onto the shard queue;
	// Analyzed counts those its analyzer consumed. They converge as
	// the queue drains (equal after Flush or Close).
	Enqueued, Analyzed uint64
	// Dropped counts datagrams shed by the Drop policy; Backpressure
	// counts producer stalls under Block (events, not datagrams).
	Dropped, Backpressure uint64
	// QueueDepth is the instantaneous number of queued batches.
	QueueDepth int
}

// Stats is a snapshot of the tier's datagram accounting. Conservation
// holds by construction: Fed == Σ Enqueued + Σ Dropped + staged (the
// ≤ BatchSize datagrams per shard not yet flushed), and after Flush or
// Close, Fed == Analyzed + Dropped exactly.
type Stats struct {
	Fed, Analyzed, Dropped, Backpressure uint64
	Shards                               []ShardStats
}

// Stats snapshots the per-shard accounting. Safe to call from any
// goroutine (the counters are atomic), though per-shard numbers are
// only mutually consistent once ingestion is quiescent.
func (s *ShardedAnalyzer) Stats() Stats {
	st := Stats{Fed: s.fed.Load(), Shards: make([]ShardStats, len(s.shards))}
	for i, sh := range s.shards {
		ss := ShardStats{
			Enqueued:     sh.enqueued.Load(),
			Analyzed:     sh.analyzed.Load(),
			Dropped:      sh.dropped.Load(),
			Backpressure: sh.backpressure.Load(),
			QueueDepth:   int(sh.pending.Load()),
		}
		st.Shards[i] = ss
		st.Analyzed += ss.Analyzed
		st.Dropped += ss.Dropped
		st.Backpressure += ss.Backpressure
	}
	return st
}

// ingestMetrics and shardMetrics are the registry handles behind the
// /metrics snapshot: tier-level fed/shards, and per-shard queue-depth
// gauges plus drop and back-pressure counters, labelled app+shard so
// a hot shard is visible in isolation. Zero values (nil registry) are
// inert, the package-wide convention.
type ingestMetrics struct {
	fed    *metrics.Counter
	shards *metrics.Gauge
}

func newIngestMetrics(r *metrics.Registry, app string, n int) ingestMetrics {
	if r == nil {
		return ingestMetrics{}
	}
	l := metrics.L("app", app)
	m := ingestMetrics{
		fed:    r.Counter("ingest_datagrams_fed_total", l),
		shards: r.Gauge("ingest_shards", l),
	}
	m.shards.Set(int64(n))
	return m
}

type shardMetrics struct {
	depth        *metrics.Gauge
	analyzed     *metrics.Counter
	dropped      *metrics.Counter
	backpressure *metrics.Counter
}

func newShardMetrics(r *metrics.Registry, app string, i int) shardMetrics {
	if r == nil {
		return shardMetrics{}
	}
	labels := []metrics.Label{metrics.L("app", app), metrics.L("shard", fmt.Sprint(i))}
	return shardMetrics{
		depth:        r.Gauge("ingest_queue_depth", labels...),
		analyzed:     r.Counter("ingest_datagrams_analyzed_total", labels...),
		dropped:      r.Counter("ingest_datagrams_dropped_total", labels...),
		backpressure: r.Counter("ingest_backpressure_total", labels...),
	}
}
