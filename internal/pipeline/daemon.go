package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtc-compliance/rtcc/internal/alert"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/live"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/trend"
)

// Daemon is the always-on compliance service: a live collector feeding
// epoch-rotated analysis sessions, each finalized epoch appended to
// the persisted compliance trend and served from the metrics endpoint
// as /compliance/trend.
//
// Lifecycle (the reload state machine):
//
//	running --Reload()--> draining: current session Flush+Close, trend
//	    point "reload", config re-read from disk, next session from the
//	    new config. The collector socket survives unless source.listen
//	    changed; the ingest accounting (fed = analyzed + dropped)
//	    accumulates across the swap, so no datagram handed to the
//	    daemon is ever unaccounted.
//	running --epoch timer--> draining: same drain, reason "epoch",
//	    fresh session from the same config.
//	running --Stop()--> draining, reason "shutdown", then Run returns.
//
// The front-end wires SIGHUP to Reload and SIGINT/SIGTERM to Stop.
type Daemon struct {
	cfgPath string
	out     io.Writer // human-readable event log (the daemon's stdout)

	cfg    Config
	runner *Runner
	col    *live.Collector
	reg    *metrics.Registry
	srv    *metrics.Server
	store  *trend.Store

	// engine evaluates alert rules against every appended trend point;
	// dispatch fans its transitions out to the configured sinks. The
	// engine lives for the daemon's lifetime — SIGHUP swaps its rule
	// set in place so firing/debounce state survives reloads.
	engine   *alert.Engine
	dispatch *alert.Dispatcher

	mu        sync.Mutex
	interrupt context.CancelFunc // cancels the in-flight collector read
	stopped   atomic.Bool
	reloadReq atomic.Bool

	total   Accounting // conservation ledger across every session
	started chan struct{}
	// gapLost is the collectors' estimate of frames lost before they
	// arrived (live.Collector.Dropped, from gaps in the exporter's
	// sequence numbers) as of the last epoch's end, summed over every
	// collector the daemon has bound (guarded by mu). Those frames
	// never reach fed, so the ledger cannot show them.
	gapLost uint64
	// gapBanked sums the last estimates of the collectors a reload
	// replaced (loop goroutine only).
	gapBanked int

	// health backs /healthz (guarded by mu).
	epochs     uint64
	reloads    uint64
	lastReload *reloadStatus
}

// reloadStatus records the outcome of the most recent SIGHUP reload.
type reloadStatus struct {
	Time  time.Time `json:"ts"`
	OK    bool      `json:"ok"`
	Error string    `json:"error,omitempty"`
}

// defaultDaemonIdle bounds how long a quiet collector read blocks —
// and therefore how stale a Reload/Stop can find the loop — when the
// config does not name source.idle.
const defaultDaemonIdle = time.Second

// NewDaemon loads the config file and prepares (but does not start)
// the service. The config must name a live source; trace sinks are
// rejected because a daemon has no end-of-run to flush them at, and a
// verdict sink because each epoch's verdict line is its trend point,
// which daemon.trend_file already persists.
func NewDaemon(cfgPath string, out io.Writer) (*Daemon, error) {
	d := &Daemon{cfgPath: cfgPath, out: out, started: make(chan struct{})}
	cfg, err := d.loadConfig()
	if err != nil {
		return nil, err
	}
	d.cfg = cfg
	return d, nil
}

// loadConfig re-reads the config file with daemon validation.
func (d *Daemon) loadConfig() (Config, error) {
	var cfg Config
	if err := LoadFile(&cfg, d.cfgPath); err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Source.Kind != SourceLive {
		return cfg, fmt.Errorf("pipeline: daemon requires source.kind \"live\", got %q", cfg.Source.Kind)
	}
	if cfg.Sinks.TraceOut != "" || cfg.Sinks.Explain != "" {
		return cfg, fmt.Errorf("pipeline: daemon cannot run trace sinks (sinks.trace_out, sinks.explain): there is no end-of-run to flush them at")
	}
	if cfg.Sinks.Verdicts != "" {
		return cfg, fmt.Errorf("pipeline: daemon cannot write sinks.verdicts: each epoch's verdict line is its trend point, which daemon.trend_file persists")
	}
	return cfg, nil
}

// Addr reports the collector's bound address once Run has started
// (blocks until then). Useful with an ephemeral source.listen port.
func (d *Daemon) Addr() string {
	<-d.started
	return d.col.Addr()
}

// MetricsAddr reports the metrics server's bound address once Run has
// started ("" when metrics are disabled).
func (d *Daemon) MetricsAddr() string {
	<-d.started
	if d.srv == nil {
		return ""
	}
	return d.srv.Addr()
}

// Total returns the cumulative ingest accounting.
func (d *Daemon) Total() Accounting {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// Stop initiates a graceful shutdown: the current session drains, a
// final trend point is recorded, and Run returns nil.
func (d *Daemon) Stop() {
	d.stopped.Store(true)
	d.wake()
}

// Reload initiates a graceful config reload (the SIGHUP path).
func (d *Daemon) Reload() {
	d.reloadReq.Store(true)
	d.wake()
}

// wake cancels the in-flight collector read so the loop notices a
// Stop/Reload without waiting out the idle timeout.
func (d *Daemon) wake() {
	d.mu.Lock()
	if d.interrupt != nil {
		d.interrupt()
	}
	d.mu.Unlock()
}

// Run starts the service and blocks until Stop. The error path covers
// setup failures and broken sinks; signal-driven shutdown returns nil.
func (d *Daemon) Run() error {
	store, err := trend.Open(d.cfg.Daemon.TrendFile, d.cfg.Daemon.TrendKeep)
	if err != nil {
		return err
	}
	d.store = store
	defer store.Close()

	d.reg = metrics.NewRegistry()
	// The runner exists before the HTTP server starts, so /healthz
	// always reads a resolved shard count. A reload swaps d.runner, so
	// close whichever runner is current.
	if d.runner, err = NewRunner(d.cfg, d.reg); err != nil {
		return err
	}
	defer func() { d.runner.Close() }()
	d.engine = alert.NewEngine(d.cfg.Alerts.RuleList(), d.reg)
	d.dispatch = alert.NewDispatcher(d.cfg.Alerts.BuildSinks(d.out),
		d.cfg.Alerts.Retries, d.cfg.Alerts.Backoff.Std(), d.out, d.reg)
	if addr := d.cfg.Sinks.MetricsAddr; addr != "" {
		srv, err := metrics.ServeWith(addr, d.reg, map[string]http.Handler{
			"/compliance/trend":  store.Handler(),
			"/compliance/alerts": d.engine.Handler(),
			"/healthz":           d.healthzHandler(),
		})
		if err != nil {
			return err
		}
		d.srv = srv
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), metrics.DefaultShutdownTimeout)
			defer cancel()
			d.srv.Shutdown(ctx) //nolint:errcheck // falls back to hard close internally
		}()
	}

	if err := d.listen(); err != nil {
		return err
	}
	defer d.col.Close()

	close(d.started)
	fmt.Fprintf(d.out, "daemon: collecting on %s (epoch %v, trend %s)\n",
		d.col.Addr(), d.cfg.Daemon.epoch(), trendName(store))
	if n := store.TornLines(); n > 0 {
		fmt.Fprintf(d.out, "daemon: trend: dropped %d torn final line(s) from %s (interrupted append)\n", n, store.Path())
	}
	if d.srv != nil {
		fmt.Fprintf(d.out, "daemon: metrics and /compliance/trend on http://%s\n", d.srv.Addr())
	}

	for !d.stopped.Load() {
		if d.reloadReq.CompareAndSwap(true, false) {
			err := d.applyReload()
			if err != nil {
				// A bad config on disk must not kill a healthy daemon:
				// log and keep running the previous config.
				fmt.Fprintf(d.out, "daemon: reload failed, keeping previous config: %v\n", err)
			}
			st := &reloadStatus{Time: time.Now().UTC(), OK: err == nil}
			if err != nil {
				st.Error = err.Error()
			}
			d.mu.Lock()
			d.reloads++
			d.lastReload = st
			d.mu.Unlock()
		}
		if err := d.runEpoch(); err != nil {
			return err
		}
	}
	fmt.Fprintf(d.out, "daemon: drained, %d datagrams fed = %d analyzed + %d dropped\n",
		d.total.Fed, d.total.Analyzed, d.total.Dropped)
	return nil
}

func trendName(s *trend.Store) string {
	if s.Path() == "" {
		return "in memory"
	}
	return s.Path()
}

// listen (re)binds the collector socket per the current config.
func (d *Daemon) listen() error {
	col, err := live.Listen(d.cfg.Source.Listen)
	if err != nil {
		return err
	}
	col.IdleTimeout = d.cfg.Source.Idle.Std()
	if col.IdleTimeout <= 0 {
		col.IdleTimeout = defaultDaemonIdle
	}
	col.Metrics = d.reg
	d.col = col
	return nil
}

// applyReload re-reads the config file and swaps the runner — the
// already-drained previous session has banked its accounting, so the
// swap loses nothing. The collector socket is kept unless
// source.listen changed; the metrics server and trend store are fixed
// for the process lifetime (changing them needs a restart, which the
// persisted trend survives).
func (d *Daemon) applyReload() error {
	cfg, err := d.loadConfig()
	if err != nil {
		return err
	}
	runner, err := NewRunner(cfg, d.reg)
	if err != nil {
		return err
	}
	if cfg.Sinks.MetricsAddr != d.cfg.Sinks.MetricsAddr {
		fmt.Fprintf(d.out, "daemon: reload: sinks.metrics_addr change ignored (restart to move the metrics server)\n")
	}
	if cfg.Daemon.TrendFile != d.cfg.Daemon.TrendFile {
		fmt.Fprintf(d.out, "daemon: reload: daemon.trend_file change ignored (restart to move the trend store)\n")
	}
	oldListen := d.cfg.Source.Listen
	d.runner.Close()
	d.mu.Lock()
	d.cfg, d.runner = cfg, runner
	d.mu.Unlock()
	// Swap the alert rules in place: firing/debounce state carries over
	// for rules that still exist (matched by name), so a reload cannot
	// re-fire an active alert or forget one. Sinks are rebuilt (the
	// config may have repointed the webhook or exec command).
	d.engine.Swap(cfg.Alerts.RuleList())
	d.dispatch = alert.NewDispatcher(cfg.Alerts.BuildSinks(d.out),
		cfg.Alerts.Retries, cfg.Alerts.Backoff.Std(), d.out, d.reg)
	if cfg.Source.Listen != oldListen {
		d.gapBanked += d.col.Dropped
		d.col.Close()
		if err := d.listen(); err != nil {
			return fmt.Errorf("pipeline: rebinding %s: %w", cfg.Source.Listen, err)
		}
		fmt.Fprintf(d.out, "daemon: reloaded, now collecting on %s\n", d.col.Addr())
		return nil
	}
	// Idle may have changed even when the address did not.
	d.col.IdleTimeout = d.cfg.Source.Idle.Std()
	if d.col.IdleTimeout <= 0 {
		d.col.IdleTimeout = defaultDaemonIdle
	}
	fmt.Fprintf(d.out, "daemon: reloaded config from %s\n", d.cfgPath)
	return nil
}

// runEpoch runs one analysis session until the epoch timer, a reload,
// or a stop ends it, then drains and records the trend point.
func (d *Daemon) runEpoch() error {
	sess, err := d.runner.NewLiveSession()
	if err != nil {
		return err
	}
	rb := live.NewReorderBuffer(d.cfg.Source.Reorder, sess.Push)

	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.Daemon.epoch())
	d.mu.Lock()
	d.interrupt = cancel
	d.mu.Unlock()
	for ctx.Err() == nil && !d.stopped.Load() && !d.reloadReq.Load() {
		if _, err := d.col.Stream(ctx, 0, rb.Push); err != nil {
			// A sink error (broken analyzer) is fatal; idle and
			// cancellation return nil and loop here.
			d.clearInterrupt(cancel)
			return err
		}
	}
	d.clearInterrupt(cancel)

	// Drain: reorder buffer, staged batch, shard queues — then close
	// the session and bank its ledger before anything else can fail.
	if err := rb.Flush(); err != nil {
		return err
	}
	if err := sess.Flush(); err != nil {
		return err
	}
	acct := sess.Accounting()
	ca, err := sess.Close()
	// An epoch of nothing but undecodable frames (hostile or malformed
	// traffic) has no compliance to record, but it must not stop the
	// daemon; every other Close error is fatal.
	undecodable := errors.Is(err, core.ErrNoDecodable)
	if err != nil && !undecodable {
		return err
	}
	d.mu.Lock()
	d.total.Add(acct)
	d.gapLost = uint64(d.gapBanked + d.col.Dropped)
	d.epochs++
	d.mu.Unlock()

	reason := "epoch"
	switch {
	case d.stopped.Load():
		reason = "shutdown"
	case d.reloadReq.Load():
		reason = "reload"
	}
	if undecodable {
		fmt.Fprintf(d.out, "daemon: epoch closed (%s): app=%s fed=%d analyzed=%d dropped=%d, no trend point: %v\n",
			reason, d.cfg.Source.EffectiveLabel(), acct.Fed, acct.Analyzed, acct.Dropped, err)
		return nil
	}
	if acct.Fed == 0 {
		return nil // a quiet epoch leaves no trend point
	}
	p := Point(time.Now().UTC(), reason, ca, acct)
	if err := d.store.Append(p); err != nil {
		return err
	}
	fmt.Fprintf(d.out, "daemon: epoch closed (%s): app=%s fed=%d analyzed=%d dropped=%d types=%d/%d\n",
		reason, p.App, acct.Fed, acct.Analyzed, acct.Dropped, p.TypesCompliant, p.TypesTotal)
	// Mirror the epoch's QoE summary into the metrics registry (gauges
	// labeled by app); nil summary or registry is a no-op.
	p.QoE.Publish(d.reg, p.App)
	// Evaluate the alert rules against the point just persisted and
	// deliver any transitions. Delivery failures are contained by the
	// dispatcher; they never kill the epoch loop.
	for _, ev := range d.engine.Observe(p) {
		d.dispatch.Dispatch(ev)
	}
	return nil
}

// healthzHandler serves the daemon's readiness report: epoch progress,
// last reload outcome, and ingest back-pressure accounting, next to
// the collector's estimate of frames lost before they arrived. Status
// is "ok", or "degraded" when the most recent reload failed (the
// daemon keeps serving the previous config, so it stays HTTP 200 — a
// supervisor distinguishes the cases from the body).
func (d *Daemon) healthzHandler() http.Handler {
	type healthz struct {
		Status       string        `json:"status"`
		Epochs       uint64        `json:"epochs"`
		EpochSeconds float64       `json:"epoch_seconds"`
		Reloads      uint64        `json:"reloads"`
		LastReload   *reloadStatus `json:"last_reload,omitempty"`
		Backpressure struct {
			Policy   string `json:"policy"`
			Shards   int    `json:"shards"`
			Fed      uint64 `json:"fed"`
			Analyzed uint64 `json:"analyzed"`
			Dropped  uint64 `json:"dropped"`
			GapLost  uint64 `json:"gap_lost"`
		} `json:"backpressure"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		d.mu.Lock()
		h := healthz{
			Status:       "ok",
			Epochs:       d.epochs,
			EpochSeconds: d.cfg.Daemon.epoch().Seconds(),
			Reloads:      d.reloads,
			LastReload:   d.lastReload,
		}
		if d.lastReload != nil && !d.lastReload.OK {
			h.Status = "degraded"
		}
		h.Backpressure.Policy = d.runner.livePolicy().String()
		h.Backpressure.Shards = d.runner.shards
		h.Backpressure.Fed = d.total.Fed
		h.Backpressure.Analyzed = d.total.Analyzed
		h.Backpressure.Dropped = d.total.Dropped
		h.Backpressure.GapLost = d.gapLost
		d.mu.Unlock()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h) //nolint:errcheck // client gone
	})
}

// clearInterrupt retires the epoch's cancel func (no-op if Stop or
// Reload already swapped it away).
func (d *Daemon) clearInterrupt(cancel context.CancelFunc) {
	d.mu.Lock()
	if d.interrupt != nil {
		d.interrupt = nil
	}
	d.mu.Unlock()
	cancel()
}
