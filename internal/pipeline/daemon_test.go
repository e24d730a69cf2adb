package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/live"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
	"github.com/rtc-compliance/rtcc/internal/trend"
)

// syncBuf is a concurrency-safe log sink for the daemon's out writer.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemonConfig renders a live-source daemon config. Short epoch and
// idle keep the accounting visible to the test quickly.
func daemonConfig(label string, shards int, trendFile string, metricsAddr string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "source:\n  kind: live\n  listen: \"127.0.0.1:0\"\n  idle: 100ms\n  label: %s\n", label)
	fmt.Fprintf(&b, "exec:\n  shards: %d\n  policy: block\n", shards)
	fmt.Fprintf(&b, "daemon:\n  epoch: 250ms\n")
	if trendFile != "" {
		fmt.Fprintf(&b, "  trend_file: %s\n", trendFile)
	}
	if metricsAddr != "" {
		fmt.Fprintf(&b, "sinks:\n  metrics_addr: \"%s\"\n", metricsAddr)
	}
	return b.String()
}

// testFrames generates a small deterministic capture to replay into the
// daemon's collector.
func testFrames(t *testing.T, seed uint64) []pcap.Packet {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App:          appsim.Zoom,
		Network:      appsim.WiFiP2P,
		Seed:         seed,
		Start:        time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
		CallDuration: 2 * time.Second,
		MediaRate:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cap.Input().Packets
}

// feedFrames replays frames into the daemon's collector socket, paced
// so the loopback receive buffer never overflows.
func feedFrames(t *testing.T, addr string, frames []pcap.Packet) uint64 {
	t.Helper()
	exp, err := live.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	for i, f := range frames {
		if err := exp.Send(f); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	return uint64(len(frames))
}

// waitFed blocks until the daemon has banked exactly want datagrams.
func waitFed(t *testing.T, d *Daemon, want uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if d.Total().Fed >= want {
			if got := d.Total(); got.Fed != want {
				t.Fatalf("overshot: fed %d, want %d (%+v)", got.Fed, want, got)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for fed=%d, have %+v", want, d.Total())
}

// waitLog blocks until the daemon log contains substr.
func waitLog(t *testing.T, out *syncBuf, substr string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(out.String(), substr) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for log %q; log:\n%s", substr, out.String())
}

func startDaemon(t *testing.T, cfgPath string, out *syncBuf) (*Daemon, chan error) {
	t.Helper()
	d, err := NewDaemon(cfgPath, out)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run() }()
	return d, errCh
}

func stopDaemon(t *testing.T, d *Daemon, errCh chan error) {
	t.Helper()
	d.Stop()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not drain after Stop")
	}
}

// TestDaemonReloadConservation is the SIGHUP-path invariant: a config
// reload mid-stream swaps the session without losing a datagram — the
// cumulative ledger still satisfies fed = analyzed + dropped and equals
// exactly what was delivered, before and after the swap.
func TestDaemonReloadConservation(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "daemon.yaml")
	trendPath := filepath.Join(dir, "trend.jsonl")
	if err := os.WriteFile(cfgPath, []byte(daemonConfig("alpha", 1, trendPath, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	out := &syncBuf{}
	d, errCh := startDaemon(t, cfgPath, out)
	addr := d.Addr()

	first := feedFrames(t, addr, testFrames(t, 1))
	waitFed(t, d, first)

	// Swap to a sharded config under a new label and keep feeding.
	if err := os.WriteFile(cfgPath, []byte(daemonConfig("beta", 2, trendPath, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	d.Reload()
	waitLog(t, out, "daemon: reloaded config from")

	second := feedFrames(t, addr, testFrames(t, 2))
	waitFed(t, d, first+second)
	stopDaemon(t, d, errCh)

	total := d.Total()
	if total.Fed != first+second {
		t.Fatalf("fed %d, want %d", total.Fed, first+second)
	}
	if total.Fed != total.Analyzed+total.Dropped {
		t.Fatalf("conservation broken: fed %d != analyzed %d + dropped %d",
			total.Fed, total.Analyzed, total.Dropped)
	}
	if total.Dropped != 0 {
		t.Fatalf("block policy must not shed: dropped = %d", total.Dropped)
	}

	// The persisted series carries both labels and per-point conservation.
	store, err := trend.Open(trendPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pts := store.Points()
	if len(pts) < 2 {
		t.Fatalf("want >= 2 trend points, got %d", len(pts))
	}
	var sum uint64
	apps := map[string]bool{}
	for _, p := range pts {
		if p.Fed != p.Analyzed+p.Dropped {
			t.Fatalf("point %v breaks conservation: %+v", p.Time, p)
		}
		sum += p.Fed
		apps[p.App] = true
	}
	if sum != total.Fed {
		t.Fatalf("trend points account for %d datagrams, daemon fed %d", sum, total.Fed)
	}
	if !apps["alpha"] || !apps["beta"] {
		t.Fatalf("want points under both labels, got %v", apps)
	}
}

// TestDaemonReloadFailureKeepsRunning: a broken config on disk must not
// kill the daemon — it logs and keeps the previous config.
func TestDaemonReloadFailureKeepsRunning(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "daemon.yaml")
	if err := os.WriteFile(cfgPath, []byte(daemonConfig("alpha", 1, "", "")), 0o644); err != nil {
		t.Fatal(err)
	}

	out := &syncBuf{}
	d, errCh := startDaemon(t, cfgPath, out)
	addr := d.Addr()

	if err := os.WriteFile(cfgPath, []byte("source:\n  kind: live\n  listen: \":0\"\n  typo_key: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d.Reload()
	waitLog(t, out, "daemon: reload failed, keeping previous config")

	// Still alive and still accounting under the old config.
	n := feedFrames(t, addr, testFrames(t, 3))
	waitFed(t, d, n)
	stopDaemon(t, d, errCh)

	total := d.Total()
	if total.Fed != total.Analyzed+total.Dropped {
		t.Fatalf("conservation broken after failed reload: %+v", total)
	}
}

// TestDaemonTrendSurvivesRestart: the persisted series reloads into a
// fresh daemon and is served from /compliance/trend over HTTP.
func TestDaemonTrendSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "daemon.yaml")
	trendPath := filepath.Join(dir, "trend.jsonl")
	if err := os.WriteFile(cfgPath, []byte(daemonConfig("alpha", 1, trendPath, "127.0.0.1:0")), 0o644); err != nil {
		t.Fatal(err)
	}

	out := &syncBuf{}
	d, errCh := startDaemon(t, cfgPath, out)
	n := feedFrames(t, d.Addr(), testFrames(t, 4))
	waitFed(t, d, n)
	stopDaemon(t, d, errCh)
	firstRun := len(readTrendFile(t, trendPath))
	if firstRun == 0 {
		t.Fatal("first run left no trend points")
	}

	// Restart: the new process must serve the old points immediately.
	out2 := &syncBuf{}
	d2, errCh2 := startDaemon(t, cfgPath, out2)
	defer stopDaemon(t, d2, errCh2)
	resp, err := http.Get("http://" + d2.MetricsAddr() + "/compliance/trend?app=alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Points []trend.Point `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Points) != firstRun {
		t.Fatalf("restarted daemon serves %d points, first run wrote %d", len(body.Points), firstRun)
	}
}

// TestDaemonStartsOverTornTrend: a crash mid-append leaves a torn
// final trend line; the restarted daemon drops it, says so once, and
// runs.
func TestDaemonStartsOverTornTrend(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "daemon.yaml")
	trendPath := filepath.Join(dir, "trend.jsonl")
	if err := os.WriteFile(cfgPath, []byte(daemonConfig("alpha", 1, trendPath, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	complete := `{"ts":"2026-07-06T12:00:00Z","app":"alpha","messages":1}` + "\n"
	if err := os.WriteFile(trendPath, []byte(complete+`{"ts":"2026-07-06T12:01:00Z","app":"al`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := &syncBuf{}
	d, errCh := startDaemon(t, cfgPath, out)
	waitLog(t, out, "dropped 1 torn final line(s)")
	stopDaemon(t, d, errCh)
	if n := strings.Count(out.String(), "torn final line"); n != 1 {
		t.Fatalf("torn-line notice logged %d times, want once; log:\n%s", n, out.String())
	}
	if b, err := os.ReadFile(trendPath); err != nil || string(b) != complete {
		t.Fatalf("trend file after restart = %q (%v), want only the complete line", b, err)
	}
}

// TestDaemonSurvivesUndecodableEpoch: an epoch of nothing but
// undecodable frames (hostile or malformed traffic) is logged and
// banked, writes no trend point, and leaves the daemon running; the
// next real epoch is analyzed and appended as usual.
func TestDaemonSurvivesUndecodableEpoch(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "daemon.yaml")
	trendPath := filepath.Join(dir, "trend.jsonl")
	if err := os.WriteFile(cfgPath, []byte(daemonConfig("alpha", 1, trendPath, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	out := &syncBuf{}
	d, errCh := startDaemon(t, cfgPath, out)
	addr := d.Addr()

	junk := make([]pcap.Packet, 50)
	for i := range junk {
		junk[i] = pcap.Packet{
			Timestamp: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond),
			Data:      []byte{0xde, 0xad, 0xbe, 0xef},
		}
	}
	sent := feedFrames(t, addr, junk)
	waitFed(t, d, sent)
	waitLog(t, out, "no trend point: core: no decodable transport packets")

	call := feedFrames(t, addr, testFrames(t, 5))
	sent += call
	waitFed(t, d, sent)
	stopDaemon(t, d, errCh)

	total := d.Total()
	if total.Fed != sent || total.Fed != total.Analyzed+total.Dropped {
		t.Fatalf("ledger %+v, want fed = analyzed + dropped = %d", total, sent)
	}
	pts := readTrendFile(t, trendPath)
	if len(pts) == 0 {
		t.Fatal("the real epoch appended no trend point")
	}
	var fed uint64
	for _, p := range pts {
		fed += p.Fed
	}
	if fed != call {
		t.Fatalf("trend points account for %d datagrams, want the call's %d", fed, call)
	}
}

// TestHealthzLiveDefaultPolicy: a sharded daemon without exec.policy
// runs its live sessions under drop, and /healthz says so. Without
// exec.shards the daemon runs one shard per CPU, or one inline shard
// (block) with exec.evict_idle, and /healthz reports that resolved
// count, never 0.
func TestHealthzLiveDefaultPolicy(t *testing.T) {
	perCPU, perCPUPolicy := runtime.GOMAXPROCS(0), "block"
	if perCPU > 1 {
		perCPUPolicy = "drop"
	}
	for _, tc := range []struct {
		exec   string
		shards int
		policy string
	}{
		{"exec:\n  shards: 2\n", 2, "drop"},
		{"", perCPU, perCPUPolicy},
		{"exec:\n  evict_idle: 5s\n", 1, "block"},
	} {
		cfgPath := filepath.Join(t.TempDir(), "daemon.yaml")
		cfg := "source:\n  kind: live\n  listen: \"127.0.0.1:0\"\n  idle: 100ms\n" +
			tc.exec +
			"daemon:\n  epoch: 250ms\n" +
			"sinks:\n  metrics_addr: \"127.0.0.1:0\"\n"
		if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
			t.Fatal(err)
		}
		d, errCh := startDaemon(t, cfgPath, &syncBuf{})
		var health struct {
			Backpressure struct {
				Policy string `json:"policy"`
				Shards int    `json:"shards"`
			} `json:"backpressure"`
		}
		getJSON(t, "http://"+d.MetricsAddr()+"/healthz", &health)
		stopDaemon(t, d, errCh)
		if health.Backpressure.Policy != tc.policy || health.Backpressure.Shards != tc.shards {
			t.Fatalf("exec %q: healthz backpressure = %+v, want %s on %d shards", tc.exec, health.Backpressure, tc.policy, tc.shards)
		}
	}
}

// TestNewDaemonRejects pins the daemon-specific config validation.
func TestNewDaemonRejects(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, content, wantErr string }{
		{"pcap-source", "source:\n  kind: pcap\n  path: x.pcap\n", `requires source.kind "live"`},
		{"trace-sink", "source:\n  kind: live\n  listen: \":0\"\nsinks:\n  trace_out: t.jsonl\n", "trace sinks"},
		{"verdict-sink", "source:\n  kind: live\n  listen: \":0\"\nsinks:\n  verdicts: v.jsonl\n", "daemon.trend_file"},
	} {
		path := filepath.Join(dir, tc.name+".yaml")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewDaemon(path, os.Stderr)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: want %q, got %v", tc.name, tc.wantErr, err)
		}
	}
}

func readTrendFile(t *testing.T, path string) []trend.Point {
	t.Helper()
	store, err := trend.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	return store.Points()
}
