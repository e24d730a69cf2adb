package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/ingest"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/trend"
)

// Runner executes one validated Config: it owns the sink plumbing
// (trace file, explain buffer, verdict stream) and routes every capture
// through the ingest tier so front-ends stop wiring those pieces by
// hand. A Runner is good for any number of captures (the manifest path
// analyzes a directory through one Runner); Close finishes the sinks.
type Runner struct {
	cfg Config
	reg *metrics.Registry
	// shards is exec.shards resolved once by ingest.ShardCount; every
	// reader of the shard count reads this value.
	shards int

	traceFile  *os.File
	traceJSONL *obs.JSONLWriter
	explain    *obs.Buffer
	tracer     obs.Tracer

	verdictFile *os.File
	verdictW    *bufio.Writer
}

// explainBufferCap selects obs.DefaultBufferCap, matching the
// historical rtccheck explain buffer.
const explainBufferCap = 0

// NewRunner validates cfg and opens its sinks. The registry may be nil
// (metrics off); serving it over HTTP stays with the caller, because
// one process may share a server across runners (or, in the daemon,
// across epochs).
func NewRunner(cfg Config, reg *metrics.Registry) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, reg: reg}
	r.shards, _ = ingest.ShardCount(cfg.Exec.Shards, cfg.Exec.EvictIdle.Std()) // validated above
	if cfg.Sinks.TraceOut != "" {
		f, err := os.Create(cfg.Sinks.TraceOut)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		r.traceFile = f
		r.traceJSONL = obs.NewJSONLWriter(f)
	}
	if cfg.Sinks.Explain != "" {
		r.explain = obs.NewBuffer(explainBufferCap)
	}
	// Build the Tee from interface values that are nil when the sink is
	// off — a typed-nil *JSONLWriter would survive Tee's nil filter.
	var sinks []obs.Tracer
	if r.traceJSONL != nil {
		sinks = append(sinks, r.traceJSONL)
	}
	if r.explain != nil {
		sinks = append(sinks, r.explain)
	}
	r.tracer = obs.Tee(sinks...)
	if cfg.Sinks.Verdicts != "" {
		f, err := os.Create(cfg.Sinks.Verdicts)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		r.verdictFile = f
		r.verdictW = bufio.NewWriter(f)
	}
	return r, nil
}

// Config returns the validated configuration.
func (r *Runner) Config() Config { return r.cfg }

// Registry returns the metrics registry (possibly nil).
func (r *Runner) Registry() *metrics.Registry { return r.reg }

// Tracer returns the composed trace sink (nil when untraced).
func (r *Runner) Tracer() obs.Tracer { return r.tracer }

// ExplainEvents returns the buffered explain trace.
func (r *Runner) ExplainEvents() []obs.Event {
	if r.explain == nil {
		return nil
	}
	return r.explain.Events()
}

// Options assembles the engine options the Config describes.
func (r *Runner) Options() core.Options {
	opts := core.Options{
		MaxOffset:    r.cfg.Analysis.MaxOffset,
		SkipFindings: !r.cfg.Analysis.FindingsOn(),
		EvictIdle:    r.cfg.Exec.EvictIdle.Std(),
		Metrics:      r.reg,
		Tracer:       r.tracer,
	}
	if r.cfg.Analysis.QoE {
		opts.QoE = &qoe.Config{}
	}
	return opts
}

// policy resolves Exec.Policy (validated earlier).
func (e Exec) policy() (ingest.Policy, error) {
	switch e.Policy {
	case "", "block":
		return ingest.Block, nil
	case "drop":
		return ingest.Drop, nil
	}
	return ingest.Block, fmt.Errorf("pipeline: unknown exec.policy %q (block or drop)", e.Policy)
}

// livePolicy resolves the policy a live session runs under: the
// configured one, else Drop on more than one shard, because a stalled
// live producer loses mirror packets upstream invisibly while Drop
// counts every shed datagram. One shard is fed inline and sheds
// nothing, which is Block.
func (r *Runner) livePolicy() ingest.Policy {
	if r.cfg.Exec.Policy == "" && r.shards > 1 {
		return ingest.Drop
	}
	p, _ := r.cfg.Exec.policy()
	return p
}

// AnalyzeReader routes one pcap/pcapng stream through the ingest tier
// on the resolved shard count. Results are byte-identical for any count
// (the shard merge is the invariant the ingest tests pin), and a pcap
// source never sheds: Validate rejects the drop policy for it.
func (r *Runner) AnalyzeReader(rd io.Reader, label string, callStart, callEnd time.Time) (*core.CaptureAnalysis, error) {
	return ingest.AnalyzePCAP(rd, label, callStart, callEnd, r.Options(), ingest.Config{Shards: r.shards})
}

// RunOnce analyzes the configured pcap source. Live sources run
// through LiveSession/Daemon instead.
func (r *Runner) RunOnce() (*core.CaptureAnalysis, error) {
	if r.cfg.Source.Kind != SourcePCAP {
		return nil, fmt.Errorf("pipeline: source.kind %q is not a one-shot source", r.cfg.Source.Kind)
	}
	f, err := os.Open(r.cfg.Source.Path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	defer f.Close()
	start, end, err := r.cfg.Source.Window()
	if err != nil {
		return nil, err
	}
	return r.AnalyzeReader(f, r.cfg.Source.EffectiveLabel(), start, end)
}

// Accounting is the ingest conservation ledger for one session: every
// datagram fed is either analyzed or (under the drop policy) counted
// as shed — Fed == Analyzed + Dropped always holds after a Flush or
// Close, and the daemon carries the sums across config reloads.
type Accounting struct {
	Fed      uint64
	Analyzed uint64
	Dropped  uint64
	Shards   int
}

// Add folds another session's ledger in (daemon epoch accumulation).
func (a *Accounting) Add(b Accounting) {
	a.Fed += b.Fed
	a.Analyzed += b.Analyzed
	a.Dropped += b.Dropped
	if b.Shards > a.Shards {
		a.Shards = b.Shards
	}
}

// Point summarizes one finished analysis as a trend.Point — the record
// both the JSONL verdict stream and the daemon's /compliance/trend
// series use.
func Point(ts time.Time, reason string, ca *core.CaptureAnalysis, acct Accounting) trend.Point {
	p := trend.Point{
		Time:     ts,
		Reason:   reason,
		Fed:      acct.Fed,
		Analyzed: acct.Analyzed,
		Dropped:  acct.Dropped,
	}
	if ca == nil || ca.Stats == nil {
		return p
	}
	p.App = ca.Stats.App
	for _, ps := range ca.Stats.ByProtocol {
		p.Messages += ps.Messages
		p.Compliant += ps.Compliant
	}
	if ratio, ok := ca.Stats.VolumeCompliance(); ok {
		v := ratio
		p.VolumeCompliance = &v
	}
	p.TypesCompliant, p.TypesTotal = ca.Stats.TypeCompliance(dpi.ProtoUnknown)
	for _, n := range ca.Stats.Datagrams {
		p.Datagrams += n
	}
	if ca.QoE != nil {
		p.QoE = ca.QoE.Summary
	}
	return p
}

// WriteVerdict appends one analysis summary to the JSONL verdict
// stream; a Runner without the sink is a no-op.
func (r *Runner) WriteVerdict(ts time.Time, reason string, ca *core.CaptureAnalysis, acct Accounting) error {
	if r.verdictW == nil {
		return nil
	}
	buf, err := json.Marshal(Point(ts, reason, ca, acct))
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if _, err := r.verdictW.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	return nil
}

// FlushTrace finishes the trace-out export, reporting the path written
// through note (nil to stay quiet). Idempotent.
func (r *Runner) FlushTrace(note io.Writer) error {
	if r.traceJSONL == nil {
		return nil
	}
	if err := r.traceJSONL.Flush(); err != nil {
		r.traceFile.Close()
		r.traceFile, r.traceJSONL = nil, nil
		return err
	}
	if err := r.traceFile.Close(); err != nil {
		r.traceFile, r.traceJSONL = nil, nil
		return err
	}
	if note != nil {
		fmt.Fprintf(note, "trace: wrote %s\n", r.cfg.Sinks.TraceOut)
	}
	r.traceFile, r.traceJSONL = nil, nil
	return nil
}

// Close finishes every sink. Safe to call more than once.
func (r *Runner) Close() error {
	err := r.FlushTrace(nil)
	if r.verdictW != nil {
		if ferr := r.verdictW.Flush(); err == nil {
			err = ferr
		}
		if cerr := r.verdictFile.Close(); err == nil {
			err = cerr
		}
		r.verdictFile, r.verdictW = nil, nil
	}
	return err
}

// LiveSession is one streaming analysis over a live frame source: the
// ingest tier on the resolved shard count, fed frame by frame (the
// tier stages core.FeedBatchSize datagrams per shard before a shard's
// analyzer runs). The daemon runs one LiveSession per epoch; one-shot
// collection runs exactly one.
type LiveSession struct {
	sa *ingest.ShardedAnalyzer
}

// NewLiveSession builds the analyzer for one live session. The live
// path always analyzes raw-IP frames with the call window defaulted to
// the received span, under livePolicy.
func (r *Runner) NewLiveSession() (*LiveSession, error) {
	sa, err := ingest.New(core.AnalyzerConfig{
		Label:               r.cfg.Source.EffectiveLabel(),
		LinkType:            pcap.LinkTypeRaw,
		DefaultWindowToSpan: true,
		FramesStable:        true, // each decapsulated frame is freshly allocated
	}, r.Options(), ingest.Config{Shards: r.shards, Policy: r.livePolicy()})
	if err != nil {
		return nil, err
	}
	return &LiveSession{sa: sa}, nil
}

// Push routes one frame onto its shard.
func (s *LiveSession) Push(pkt pcap.Packet) error {
	return s.sa.Feed(pkt.Timestamp, pkt.Data)
}

// Flush hands the shards their staged batches and waits for them to
// analyze everything fed, so Accounting is conservation-complete.
func (s *LiveSession) Flush() error { return s.sa.Flush() }

// Accounting reports the session ledger; call after Flush (or Close)
// for exact numbers.
func (s *LiveSession) Accounting() Accounting {
	st := s.sa.Stats()
	return Accounting{Fed: st.Fed, Analyzed: st.Analyzed, Dropped: st.Dropped, Shards: len(st.Shards)}
}

// Close drains and finalizes the session.
func (s *LiveSession) Close() (*core.CaptureAnalysis, error) { return s.sa.Close() }
