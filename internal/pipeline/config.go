// Package pipeline is the one composition layer behind every front-end:
// a declarative Config names the capture source, the execution mode, and
// the output sinks, and a Runner assembles the existing engine pieces —
// the ingest tier over the streaming core.Analyzer, the live
// collector — the same way for every binary. Before this layer each
// cmd/ binary wired analyzers, shard tiers, trace files, and metrics
// endpoints by hand; now a front-end parses flags (or a config file)
// into a Config and hands it over. The daemon (Daemon) runs the same
// Config continuously with graceful SIGHUP reload and a persisted
// compliance trend.
package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/rtc-compliance/rtcc/internal/alert"
	"github.com/rtc-compliance/rtcc/internal/ingest"
)

// Source kinds accepted by Config.Source.Kind.
const (
	// SourcePCAP reads a capture file (classic pcap or pcapng, detected
	// from the leading magic).
	SourcePCAP = "pcap"
	// SourceLive receives encapsulated frames on a UDP socket (the
	// rtclive mirror protocol).
	SourceLive = "live"
)

// Duration is a time.Duration that (un)marshals as a Go duration
// string ("30s", "2m"), the form config files use.
type Duration time.Duration

// UnmarshalJSON accepts a duration string or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		td, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(td)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// MarshalJSON renders the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Config is the declarative description of one analysis pipeline: what
// to read, how to execute, and where results go. The zero value plus a
// source is a valid pipeline on one shard per CPU. It loads from a JSON
// or YAML file (LoadFile) and binds to command-line flags through the
// cmdutil helpers; explicitly-set flags take precedence over file keys.
type Config struct {
	Source   Source       `json:"source"`
	Exec     Exec         `json:"exec"`
	Analysis Analysis     `json:"analysis"`
	Sinks    Sinks        `json:"sinks"`
	Daemon   DaemonConfig `json:"daemon"`
	Alerts   AlertsConfig `json:"alerts"`
}

// Source names the capture input.
type Source struct {
	// Kind selects the source: pcap or live.
	Kind string `json:"kind"`
	// Path is the capture file (pcap kind).
	Path string `json:"path"`
	// Label names the application (or capture) in reports and the
	// trend series. Defaults: the file base name (pcap), "live" (live).
	Label string `json:"label"`
	// Start and End delimit the annotated call window, RFC 3339.
	// Empty defaults the window to the capture span.
	Start string `json:"start"`
	End   string `json:"end"`

	// Listen is the UDP address for the live source (host:port; port 0
	// for ephemeral).
	Listen string `json:"listen"`
	// Idle ends a live read (one Stream call) after this long without
	// frames; the daemon loops, a one-shot collect stops. Zero selects
	// the collector default.
	Idle Duration `json:"idle"`
	// MaxFrames stops a one-shot live collection after this many
	// frames (0 = until idle).
	MaxFrames int `json:"max_frames"`
	// Reorder is the live reorder-buffer depth (0 selects 256).
	Reorder int `json:"reorder"`
}

// Exec names the execution mode and its knobs.
type Exec struct {
	// Shards is the capture's one parallelism setting: the ingest tier
	// feeds on this many shards and its merge finalizes the surviving
	// streams on as many goroutines. 0 selects one shard per CPU, or
	// one with EvictIdle; 1 feeds the one shard inline, a serial
	// Analyzer. Output is byte-identical to serial for any value.
	Shards int `json:"shards"`
	// Policy is the shard back-pressure policy: "block" (lossless,
	// default) or "drop" (live shedding, every shed datagram counted).
	// A pcap source must not shed, so it rejects "drop".
	Policy string `json:"policy"`
	// EvictIdle finalizes streams idle this long to bound memory
	// (0 = off). Eviction runs on one shard only, so it rejects Shards
	// above 1.
	EvictIdle Duration `json:"evict_idle"`
}

// Analysis names the engine knobs.
type Analysis struct {
	// MaxOffset is the DPI's k parameter (0 selects the paper's 200).
	MaxOffset int `json:"max_offset"`
	// Findings enables the behavioural-findings detectors. Nil (key
	// absent) means true, matching every binary's default.
	Findings *bool `json:"findings"`
	// KeepPayloads retains per-packet payload records (required by
	// header inference).
	KeepPayloads bool `json:"keep_payloads"`
	// QoE enables the header-free QoE estimator (internal/qoe):
	// per-stream frame rate, bitrate, inter-frame gap jitter, and
	// stall heuristics attached to results and trend points. Off by
	// default (zero hot-path cost, like metrics).
	QoE bool `json:"qoe"`
}

// FindingsOn reports the effective findings setting.
func (a Analysis) FindingsOn() bool { return a.Findings == nil || *a.Findings }

// Sinks names the outputs.
type Sinks struct {
	// Report selects the per-capture report rendering: "text"
	// (default), "json", or "none".
	Report string `json:"report"`
	// TraceOut exports the decision trace as JSONL to this file.
	TraceOut string `json:"trace_out"`
	// Explain traces the run in memory and renders the decisions
	// matching "<app>/<stream>/<msgtype>".
	Explain string `json:"explain"`
	// MetricsAddr serves /metrics, /debug/vars, and /debug/pprof (and,
	// in daemon mode, /compliance/trend) on this address.
	MetricsAddr string `json:"metrics_addr"`
	// Verdicts streams one JSON object per analyzed capture (or daemon
	// epoch) to this file: per-type message counts and compliance.
	Verdicts string `json:"verdicts"`
}

// DaemonConfig names the always-on service knobs (rtclive daemon).
type DaemonConfig struct {
	// Epoch is the analysis rotation period: each epoch the current
	// session is drained, a trend point is persisted, and a fresh
	// session starts. Zero selects 60s.
	Epoch Duration `json:"epoch"`
	// TrendFile persists the compliance time series (JSONL). Empty
	// keeps the trend in memory only.
	TrendFile string `json:"trend_file"`
	// TrendKeep bounds the in-memory trend ring (0 selects the trend
	// package default).
	TrendKeep int `json:"trend_keep"`
}

// epoch returns the effective rotation period.
func (d DaemonConfig) epoch() time.Duration {
	if d.Epoch > 0 {
		return d.Epoch.Std()
	}
	return 60 * time.Second
}

// AlertsConfig declares the daemon's alert rules and delivery sinks.
// Rules are a mapping keyed by rule name (the config YAML subset has
// no sequences), evaluated against every persisted trend point.
type AlertsConfig struct {
	// Rules maps rule name -> rule; see alert.Rule for the per-rule
	// schema (type, app, drop, min, max, field, for_points,
	// clear_points).
	Rules map[string]alert.Rule `json:"rules"`
	// Sinks selects where fired/resolved alerts are delivered. The log
	// sink (the daemon's stdout) is always on when any rule is
	// configured.
	Sinks AlertSinks `json:"sinks"`
	// Retries is how many re-attempts follow a failed delivery per
	// sink; Backoff sleeps between attempts (0 = none).
	Retries int      `json:"retries"`
	Backoff Duration `json:"backoff"`
}

// AlertSinks names the delivery destinations.
type AlertSinks struct {
	// Webhook POSTs each event as JSON to this URL when non-empty.
	Webhook AlertWebhook `json:"webhook"`
	// Exec runs a shell command per event when non-empty (event JSON on
	// stdin, ALERT_* variables in the environment).
	Exec AlertExec `json:"exec"`
}

// AlertWebhook configures the webhook sink.
type AlertWebhook struct {
	URL     string   `json:"url"`
	Timeout Duration `json:"timeout"`
}

// AlertExec configures the exec sink.
type AlertExec struct {
	Command string   `json:"command"`
	Timeout Duration `json:"timeout"`
}

// RuleList returns the configured rules with Name filled from the map
// key, sorted by name — the deterministic set handed to alert.NewEngine.
func (a AlertsConfig) RuleList() []alert.Rule {
	names := make([]string, 0, len(a.Rules))
	for name := range a.Rules {
		names = append(names, name)
	}
	sort.Strings(names)
	rules := make([]alert.Rule, 0, len(names))
	for _, name := range names {
		r := a.Rules[name]
		r.Name = name
		rules = append(rules, r)
	}
	return rules
}

// BuildSinks assembles the configured sink set (log always included),
// with out receiving log-sink lines.
func (a AlertsConfig) BuildSinks(out io.Writer) []alert.Sink {
	sinks := []alert.Sink{&alert.LogSink{Out: out}}
	if a.Sinks.Webhook.URL != "" {
		sinks = append(sinks, &alert.WebhookSink{URL: a.Sinks.Webhook.URL, Timeout: a.Sinks.Webhook.Timeout.Std()})
	}
	if a.Sinks.Exec.Command != "" {
		sinks = append(sinks, &alert.ExecSink{Command: a.Sinks.Exec.Command, Timeout: a.Sinks.Exec.Timeout.Std()})
	}
	return sinks
}

// Window parses the configured call window.
func (s Source) Window() (start, end time.Time, err error) {
	if s.Start != "" {
		start, err = time.Parse(time.RFC3339, s.Start)
		if err != nil {
			return start, end, fmt.Errorf("pipeline: bad source.start: %w", err)
		}
	}
	if s.End != "" {
		end, err = time.Parse(time.RFC3339, s.End)
		if err != nil {
			return start, end, fmt.Errorf("pipeline: bad source.end: %w", err)
		}
	}
	return start, end, nil
}

// EffectiveLabel resolves the report label for the source.
func (s Source) EffectiveLabel() string {
	if s.Label != "" {
		return s.Label
	}
	switch s.Kind {
	case SourceLive:
		return "live"
	case SourcePCAP:
		if s.Path != "" {
			return filepath.Base(s.Path)
		}
	}
	return ""
}

// Validate checks the configuration's internal consistency and returns
// the first problem as an actionable error. Every front-end validates
// before building a Runner, so every rule is enforced uniformly instead
// of per-binary.
func (c *Config) Validate() error {
	switch c.Source.Kind {
	case SourcePCAP:
		if c.Source.Path == "" {
			return fmt.Errorf("pipeline: source.kind %q requires source.path", c.Source.Kind)
		}
	case SourceLive:
		if c.Source.Listen == "" {
			return fmt.Errorf("pipeline: source.kind %q requires source.listen", c.Source.Kind)
		}
	case "":
		return fmt.Errorf("pipeline: source.kind is required (pcap or live)")
	default:
		return fmt.Errorf("pipeline: unknown source.kind %q (pcap or live)", c.Source.Kind)
	}
	if _, _, err := c.Source.Window(); err != nil {
		return err
	}
	if err := c.checkNonNegative(); err != nil {
		return err
	}
	if _, err := c.Exec.policy(); err != nil {
		return err
	}
	if c.Exec.Policy == "drop" && c.Source.Kind == SourcePCAP {
		return fmt.Errorf("pipeline: exec.policy \"drop\" cannot be combined with source.kind \"pcap\" (a file reader can always wait, and shed datagrams would vanish from the analysis); use \"block\"")
	}
	if _, err := ingest.ShardCount(c.Exec.Shards, c.Exec.EvictIdle.Std()); err != nil {
		return fmt.Errorf("pipeline: exec.evict_idle needs exec.shards 0 or 1: %w", err)
	}
	switch c.Sinks.Report {
	case "", "text", "json", "none":
	default:
		return fmt.Errorf("pipeline: unknown sinks.report %q (text, json, or none)", c.Sinks.Report)
	}
	if c.Analysis.KeepPayloads && c.Exec.EvictIdle > 0 {
		return fmt.Errorf("pipeline: analysis.keep_payloads is incompatible with exec.evict_idle (evicted payloads cannot be retained)")
	}
	for _, r := range c.Alerts.RuleList() {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("pipeline: alerts.rules.%s: %w", r.Name, err)
		}
		if r.Type == alert.TypeQoEFloor && !c.Analysis.QoE {
			return fmt.Errorf("pipeline: alerts.rules.%s: qoe_floor rules need analysis.qoe: true (trend points carry no QoE fields otherwise)", r.Name)
		}
	}
	return nil
}

// checkNonNegative rejects negative counts and durations, which every
// consumer would otherwise read as "stop at once" or "never": a
// negative source.max_frames, for one, ends a collection before its
// first read.
func (c *Config) checkNonNegative() error {
	for _, f := range []struct {
		key string
		v   int64
	}{
		{"source.idle", int64(c.Source.Idle)},
		{"source.max_frames", int64(c.Source.MaxFrames)},
		{"source.reorder", int64(c.Source.Reorder)},
		{"exec.shards", int64(c.Exec.Shards)},
		{"exec.evict_idle", int64(c.Exec.EvictIdle)},
		{"analysis.max_offset", int64(c.Analysis.MaxOffset)},
		{"daemon.epoch", int64(c.Daemon.Epoch)},
		{"daemon.trend_keep", int64(c.Daemon.TrendKeep)},
		{"alerts.retries", int64(c.Alerts.Retries)},
		{"alerts.backoff", int64(c.Alerts.Backoff)},
	} {
		if f.v < 0 {
			return fmt.Errorf("pipeline: %s must be non-negative", f.key)
		}
	}
	return nil
}

// LoadFile reads a config file over cfg: keys present in the file
// override the corresponding fields, keys absent leave them — which is
// what gives flag-bound defaults file-then-flag precedence. The format
// is JSON or a YAML subset (mappings, scalars, comments; see
// parseYAML), chosen by extension (.json is JSON, everything else
// YAML). Unknown keys are rejected.
func LoadFile(cfg *Config, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if strings.EqualFold(filepath.Ext(path), ".json") {
		return strictDecode(cfg, data, path)
	}
	doc, err := parseYAML(data)
	if err != nil {
		return fmt.Errorf("pipeline: %s: %w", path, err)
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("pipeline: %s: %w", path, err)
	}
	return strictDecode(cfg, buf, path)
}

// strictDecode unmarshals JSON into cfg, rejecting unknown keys at any
// nesting level.
func strictDecode(cfg *Config, data []byte, path string) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return fmt.Errorf("pipeline: %s: %w", path, err)
	}
	return nil
}
