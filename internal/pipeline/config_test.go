package pipeline

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeConfig(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFileJSON(t *testing.T) {
	path := writeConfig(t, "p.json", `{
  "source": {"kind": "pcap", "path": "call.pcap", "label": "Zoom"},
  "exec": {"shards": 4, "policy": "drop"},
  "analysis": {"max_offset": 100, "findings": false},
  "daemon": {"epoch": "30s"}
}`)
	var cfg Config
	if err := LoadFile(&cfg, path); err != nil {
		t.Fatal(err)
	}
	if cfg.Source.Kind != SourcePCAP || cfg.Source.Path != "call.pcap" || cfg.Source.Label != "Zoom" {
		t.Fatalf("source = %+v", cfg.Source)
	}
	if cfg.Exec.Shards != 4 || cfg.Exec.Policy != "drop" {
		t.Fatalf("exec = %+v", cfg.Exec)
	}
	if cfg.Analysis.MaxOffset != 100 || cfg.Analysis.FindingsOn() {
		t.Fatalf("analysis = %+v", cfg.Analysis)
	}
	if cfg.Daemon.Epoch.Std() != 30*time.Second {
		t.Fatalf("daemon.epoch = %v", cfg.Daemon.Epoch.Std())
	}
}

func TestLoadFileYAML(t *testing.T) {
	path := writeConfig(t, "p.yaml", `
# daemon config
source:
  kind: live
  listen: "127.0.0.1:0"
  idle: 500ms          # inline comment
  label: mirror
exec:
  shards: 2
  policy: drop
sinks:
  metrics_addr: 127.0.0.1:0
daemon:
  epoch: 2s
  trend_file: trend.jsonl
  trend_keep: 16
`)
	var cfg Config
	if err := LoadFile(&cfg, path); err != nil {
		t.Fatal(err)
	}
	if cfg.Source.Kind != SourceLive || cfg.Source.Listen != "127.0.0.1:0" || cfg.Source.Label != "mirror" {
		t.Fatalf("source = %+v", cfg.Source)
	}
	if cfg.Source.Idle.Std() != 500*time.Millisecond {
		t.Fatalf("idle = %v", cfg.Source.Idle.Std())
	}
	if cfg.Exec.Shards != 2 || cfg.Exec.Policy != "drop" {
		t.Fatalf("exec = %+v", cfg.Exec)
	}
	if cfg.Daemon.Epoch.Std() != 2*time.Second || cfg.Daemon.TrendFile != "trend.jsonl" || cfg.Daemon.TrendKeep != 16 {
		t.Fatalf("daemon = %+v", cfg.Daemon)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLoadFileOverridesOnlyPresentKeys(t *testing.T) {
	// The precedence contract: keys absent from the file keep whatever
	// the flags layered in first.
	path := writeConfig(t, "p.yaml", `
exec:
  shards: 8
`)
	var cfg Config
	cfg.Source.Kind = SourcePCAP
	cfg.Source.Path = "from-flags.pcap"
	cfg.Exec.Policy = "block"
	cfg.Exec.Shards = 1
	if err := LoadFile(&cfg, path); err != nil {
		t.Fatal(err)
	}
	if cfg.Exec.Shards != 8 {
		t.Fatalf("file key should override: shards = %d", cfg.Exec.Shards)
	}
	if cfg.Exec.Policy != "block" || cfg.Source.Path != "from-flags.pcap" {
		t.Fatalf("absent keys must not reset: %+v", cfg)
	}
}

func TestLoadFileRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ name, content string }{
		{"p.json", `{"source": {"kind": "pcap", "path": "x", "typo_key": 1}}`},
		{"p.yaml", "source:\n  kind: pcap\n  path: x\nexcec:\n  shards: 2\n"},
		// Keys outside the schema — shard-queue knobs, the appsim
		// source's parameters — fail loudly instead of being ignored.
		{"queue.yaml", "source:\n  kind: pcap\n  path: x\nexec:\n  queue_depth: 16\n"},
		// The shard count is the one parallelism key.
		{"workers.yaml", "source:\n  kind: pcap\n  path: x\nexec:\n  workers: 4\n"},
		{"appsim.json", `{"source": {"kind": "appsim", "app": "Zoom", "network": "wifi-p2p"}}`},
	} {
		var cfg Config
		err := LoadFile(&cfg, writeConfig(t, tc.name, tc.content))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("%s: want unknown-field error, got %v", tc.name, err)
		}
	}
}

func TestYAMLRejects(t *testing.T) {
	for _, tc := range []struct{ name, content, wantErr string }{
		{"tabs", "source:\n\tkind: pcap\n", "tabs"},
		{"sequence", "apps:\n  - zoom\n", "sequences"},
		{"duplicate", "exec:\n  shards: 1\n  shards: 2\n", "duplicate"},
		{"dedent", "source:\n    kind: live\n   listen: x\n", "indentation"},
	} {
		_, err := parseYAML([]byte(tc.content))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: want %q error, got %v", tc.name, tc.wantErr, err)
		}
	}
}

func TestDurationForms(t *testing.T) {
	var cfg Config
	path := writeConfig(t, "p.json", `{"daemon": {"epoch": 1500000000}}`)
	if err := LoadFile(&cfg, path); err != nil {
		t.Fatal(err)
	}
	if cfg.Daemon.Epoch.Std() != 1500*time.Millisecond {
		t.Fatalf("numeric duration = %v", cfg.Daemon.Epoch.Std())
	}
	var cfg2 Config
	path2 := writeConfig(t, "p2.json", `{"daemon": {"epoch": "2m30s"}}`)
	if err := LoadFile(&cfg2, path2); err != nil {
		t.Fatal(err)
	}
	if cfg2.Daemon.Epoch.Std() != 2*time.Minute+30*time.Second {
		t.Fatalf("string duration = %v", cfg2.Daemon.Epoch.Std())
	}
}

// TestValidateEvictionRunsOnOneShard pins the one eviction rule: idle
// eviction validates at exec.shards 0 and 1, with or without a trace
// sink, and resolves to one shard; above one shard it is rejected.
// Without eviction every shard count validates, traced or not.
func TestValidateEvictionRunsOnOneShard(t *testing.T) {
	dir := t.TempDir()
	for _, shards := range []int{0, 1, 2, 4, 16} {
		for _, sink := range []func(*Config){
			func(c *Config) {},
			func(c *Config) { c.Sinks.TraceOut = filepath.Join(dir, "trace.jsonl") },
			func(c *Config) { c.Sinks.Explain = "Zoom" },
		} {
			cfg := Config{}
			cfg.Source.Kind = SourcePCAP
			cfg.Source.Path = "x.pcap"
			cfg.Exec.Shards = shards
			sink(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("shards %d: must validate without eviction: %v", shards, err)
			}
			cfg.Exec.EvictIdle = Duration(time.Second)
			if shards > 1 {
				if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "exec.evict_idle needs exec.shards 0 or 1") {
					t.Fatalf("shards %d: want the eviction rejection, got %v", shards, err)
				}
				continue
			}
			r, err := NewRunner(cfg, nil)
			if err != nil {
				t.Fatalf("shards %d: eviction must validate: %v", shards, err)
			}
			if r.shards != 1 {
				t.Errorf("shards %d with eviction resolved to %d shards, want 1", shards, r.shards)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		mutate  func(*Config)
		wantErr string
	}{
		{func(c *Config) {}, "source.kind is required"},
		{func(c *Config) { c.Source.Kind = "udp" }, "unknown source.kind"},
		{func(c *Config) { c.Source.Kind = SourcePCAP }, "requires source.path"},
		{func(c *Config) { c.Source.Kind = SourceLive }, "requires source.listen"},
		{func(c *Config) { c.Source.Kind = "appsim" }, "unknown source.kind"},
		{func(c *Config) {
			c.Source.Kind = SourcePCAP
			c.Source.Path = "x"
			c.Exec.Policy = "spill"
		}, "unknown exec.policy"},
		{func(c *Config) {
			c.Source.Kind = SourcePCAP
			c.Source.Path = "x"
			c.Sinks.Report = "xml"
		}, "unknown sinks.report"},
		{func(c *Config) {
			c.Source.Kind = SourcePCAP
			c.Source.Path = "x"
			c.Source.Start = "yesterday"
		}, "bad source.start"},
		{func(c *Config) {
			c.Source.Kind = SourceLive
			c.Source.Listen = ":0"
			c.Source.MaxFrames = -1
		}, "source.max_frames must be non-negative"},
		{func(c *Config) {
			c.Source.Kind = SourceLive
			c.Source.Listen = ":0"
			c.Source.Reorder = -1
		}, "source.reorder must be non-negative"},
		{func(c *Config) {
			c.Source.Kind = SourceLive
			c.Source.Listen = ":0"
			c.Source.Idle = Duration(-time.Second)
		}, "source.idle must be non-negative"},
		{func(c *Config) {
			c.Source.Kind = SourcePCAP
			c.Source.Path = "x"
			c.Exec.Shards = 4
			c.Exec.Policy = "drop"
		}, `exec.policy "drop" cannot be combined with source.kind "pcap"`},
		{func(c *Config) {
			c.Source.Kind = SourcePCAP
			c.Source.Path = "x"
			c.Exec.Shards = -1
		}, "exec.shards must be non-negative"},
		{func(c *Config) {
			c.Source.Kind = SourcePCAP
			c.Source.Path = "x"
			c.Exec.EvictIdle = Duration(-time.Second)
		}, "exec.evict_idle must be non-negative"},
		{func(c *Config) {
			c.Source.Kind = SourcePCAP
			c.Source.Path = "x"
			c.Analysis.MaxOffset = -1
		}, "analysis.max_offset must be non-negative"},
		{func(c *Config) {
			c.Source.Kind = SourceLive
			c.Source.Listen = ":0"
			c.Daemon.Epoch = Duration(-time.Second)
		}, "daemon.epoch must be non-negative"},
		{func(c *Config) {
			c.Source.Kind = SourceLive
			c.Source.Listen = ":0"
			c.Daemon.TrendKeep = -1
		}, "daemon.trend_keep must be non-negative"},
	}
	for i, tc := range cases {
		var cfg Config
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("case %d: want %q, got %v", i, tc.wantErr, err)
		}
	}
}

func TestEffectiveLabel(t *testing.T) {
	s := Source{Kind: SourcePCAP, Path: "/tmp/traces/000_zoom.pcap"}
	if got := s.EffectiveLabel(); got != "000_zoom.pcap" {
		t.Fatalf("pcap label = %q", got)
	}
	s = Source{Kind: SourceLive, Listen: ":0"}
	if got := s.EffectiveLabel(); got != "live" {
		t.Fatalf("live label = %q", got)
	}
	s.Label = "override"
	if got := s.EffectiveLabel(); got != "override" {
		t.Fatalf("explicit label = %q", got)
	}
}

func TestLoadFileAlertsYAML(t *testing.T) {
	path := writeConfig(t, "p.yaml", `
source:
  kind: live
  listen: "127.0.0.1:0"
analysis:
  qoe: true
alerts:
  retries: 2
  backoff: 50ms
  rules:
    floor:
      type: compliance_drop
      min: 0.5
      for_points: 2
      clear_points: 3
    regress:
      type: compliance_drop
      app: Zoom
      drop: 0.3
    fps:
      type: qoe_floor
      field: frame_rate
      min: 15
  sinks:
    webhook:
      url: "http://127.0.0.1:9/hook"
      timeout: 2s
    exec:
      command: "logger alert"
`)
	var cfg Config
	if err := LoadFile(&cfg, path); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !cfg.Analysis.QoE {
		t.Fatal("analysis.qoe not decoded")
	}
	if cfg.Alerts.Retries != 2 || cfg.Alerts.Backoff.Std() != 50*time.Millisecond {
		t.Fatalf("alerts = %+v", cfg.Alerts)
	}
	rules := cfg.Alerts.RuleList()
	if len(rules) != 3 || rules[0].Name != "floor" || rules[1].Name != "fps" || rules[2].Name != "regress" {
		t.Fatalf("rules = %+v", rules)
	}
	floor := rules[0]
	if floor.Min == nil || *floor.Min != 0.5 || floor.ForPoints != 2 || floor.ClearPoints != 3 {
		t.Fatalf("floor rule = %+v", floor)
	}
	regress := rules[2]
	if regress.App != "Zoom" || regress.Drop == nil || *regress.Drop != 0.3 {
		t.Fatalf("regress rule = %+v", regress)
	}
	fps := rules[1]
	if fps.Field != "frame_rate" || fps.Min == nil || *fps.Min != 15 {
		t.Fatalf("fps rule = %+v", fps)
	}
	if cfg.Alerts.Sinks.Webhook.URL != "http://127.0.0.1:9/hook" || cfg.Alerts.Sinks.Webhook.Timeout.Std() != 2*time.Second {
		t.Fatalf("webhook sink = %+v", cfg.Alerts.Sinks.Webhook)
	}
	sinks := cfg.Alerts.BuildSinks(os.Stderr)
	names := make([]string, len(sinks))
	for i, s := range sinks {
		names[i] = s.Name()
	}
	if strings.Join(names, ",") != "log,webhook,exec" {
		t.Fatalf("sinks = %v", names)
	}
}

func TestValidateAlertErrors(t *testing.T) {
	base := "source:\n  kind: live\n  listen: \"127.0.0.1:0\"\n"
	for _, tc := range []struct{ name, content, wantErr string }{
		{
			"bad-rule",
			base + "alerts:\n  rules:\n    r:\n      type: compliance_drop\n",
			"alerts.rules.r",
		},
		{
			"qoe-rule-without-qoe",
			base + "alerts:\n  rules:\n    r:\n      type: qoe_floor\n      field: frame_rate\n      min: 15\n",
			"analysis.qoe",
		},
		{
			"negative-retries",
			base + "alerts:\n  retries: -1\n",
			"retries",
		},
	} {
		var cfg Config
		if err := LoadFile(&cfg, writeConfig(t, tc.name+".yaml", tc.content)); err != nil {
			t.Fatalf("%s: load: %v", tc.name, err)
		}
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: want %q error, got %v", tc.name, tc.wantErr, err)
		}
	}
}
