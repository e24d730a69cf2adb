package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/alert"
	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// alertDaemonConfig renders a daemon config with an absolute
// compliance floor and an exec sink appending one line per event to
// execFile. min 0.2 sits between Discord's type-compliance rate (0)
// and any Zoom epoch, so swapping the replayed app forces a regression.
func alertDaemonConfig(label, trendFile, execFile string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "source:\n  kind: live\n  listen: \"127.0.0.1:0\"\n  idle: 100ms\n  label: %s\n", label)
	fmt.Fprintf(&b, "exec:\n  shards: 1\n  policy: block\n")
	fmt.Fprintf(&b, "analysis:\n  qoe: true\n")
	fmt.Fprintf(&b, "daemon:\n  epoch: 250ms\n  trend_file: %s\n", trendFile)
	fmt.Fprintf(&b, "sinks:\n  metrics_addr: \"127.0.0.1:0\"\n")
	fmt.Fprintf(&b, "alerts:\n  rules:\n    floor:\n      type: compliance_drop\n      min: 0.2\n")
	fmt.Fprintf(&b, "  sinks:\n    exec:\n      command: \"echo $ALERT_KIND.$ALERT_RULE.$ALERT_APP >> %s\"\n", execFile)
	return b.String()
}

// appFrames is testFrames for an arbitrary app.
func appFrames(t *testing.T, app appsim.App, seed uint64) []pcap.Packet {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App:          app,
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

// execLines reads the exec sink's complete lines (absent file = no
// events). The sink's shell creates the file before it writes the
// line, so an unterminated tail is a line still being written and does
// not count.
func execLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	done := string(raw[:bytes.LastIndexByte(raw, '\n')+1])
	if done == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(done, "\n"), "\n")
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// waitExecLines blocks until the exec sink has written exactly want
// lines (and complains on overshoot).
func waitExecLines(t *testing.T, path string, want int) []string {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if lines := execLines(t, path); len(lines) >= want {
			return lines
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %d exec-sink lines, have %v", want, execLines(t, path))
	return nil
}

// TestDaemonAlertLifecycle drives the full alerting path end to end:
// a compliance regression (Zoom replay swapped for Discord under the
// same label) fires the rule exactly once through the exec and log
// sinks, stays suppressed while the regression persists — including
// across a SIGHUP-style reload — is visible on /compliance/alerts,
// /healthz and /metrics?format=prom, and resolves when compliant
// traffic returns.
func TestDaemonAlertLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "daemon.yaml")
	trendPath := filepath.Join(dir, "trend.jsonl")
	execPath := filepath.Join(dir, "alerts.out")
	cfg := alertDaemonConfig("call", trendPath, execPath)
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}

	out := &syncBuf{}
	d, errCh := startDaemon(t, cfgPath, out)
	addr := d.Addr()
	api := "http://" + d.MetricsAddr()

	// Healthy traffic: establishes state, no alert.
	fed := feedFrames(t, addr, appFrames(t, appsim.Zoom, 1))
	waitFed(t, d, fed)
	waitLog(t, out, "daemon: epoch closed")
	if lines := execLines(t, execPath); len(lines) != 0 {
		t.Fatalf("alert fired on healthy traffic: %v", lines)
	}

	// Regression: Discord's RTC traffic fails every type check, so the
	// same label now breaches the floor.
	fed += feedFrames(t, addr, appFrames(t, appsim.Discord, 2))
	waitFed(t, d, fed)
	waitLog(t, out, "alert floor firing: app=call type-compliance rate=0.000")
	if lines := waitExecLines(t, execPath, 1); len(lines) != 1 || lines[0] != "fire.floor.call" {
		t.Fatalf("exec sink after fire: %v", lines)
	}

	// The firing episode is visible over HTTP.
	var snap alert.Snapshot
	getJSON(t, api+"/compliance/alerts", &snap)
	if snap.Firing != 1 || len(snap.States) != 1 || !snap.States[0].Firing || snap.States[0].Fires != 1 {
		t.Fatalf("alerts snapshot: %+v", snap)
	}

	// Persisting regression: suppressed, not re-fired. Wait until the
	// rule has actually evaluated more regressed points.
	seen := snap.States[0].Evaluated
	fed += feedFrames(t, addr, appFrames(t, appsim.Discord, 3))
	waitFed(t, d, fed)
	waitEvaluated(t, api, seen)
	if lines := execLines(t, execPath); len(lines) != 1 {
		t.Fatalf("persistent breach re-fired: %v", lines)
	}

	// Reload (the SIGHUP path) must keep the firing state: feeding more
	// regressed traffic afterwards must not re-fire.
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	d.Reload()
	waitLog(t, out, "daemon: reloaded config from")
	fed += feedFrames(t, addr, appFrames(t, appsim.Discord, 4))
	waitFed(t, d, fed)
	getJSON(t, api+"/compliance/alerts", &snap)
	if snap.Firing != 1 || snap.States[0].Fires != 1 {
		t.Fatalf("firing state lost across reload: %+v", snap)
	}
	if lines := execLines(t, execPath); len(lines) != 1 {
		t.Fatalf("reload re-fired the alert: %v", lines)
	}

	// Health endpoint reflects the reload and the block policy.
	var health struct {
		Status     string `json:"status"`
		Epochs     uint64 `json:"epochs"`
		Reloads    uint64 `json:"reloads"`
		LastReload *struct {
			OK bool `json:"ok"`
		} `json:"last_reload"`
		Backpressure struct {
			Policy string `json:"policy"`
			Fed    uint64 `json:"fed"`
		} `json:"backpressure"`
	}
	getJSON(t, api+"/healthz", &health)
	if health.Status != "ok" || health.Reloads != 1 || health.LastReload == nil || !health.LastReload.OK {
		t.Fatalf("healthz: %+v", health)
	}
	if health.Epochs == 0 || health.Backpressure.Policy != "block" || health.Backpressure.Fed != fed {
		t.Fatalf("healthz accounting: %+v", health)
	}

	// Prometheus exposition carries the alert counters.
	resp, err := http.Get(api + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	promBody := readBody(t, resp)
	for _, line := range []string{"rtcc_alerts_fired_total 1", "rtcc_alerts_firing 1", `rtcc_alerts_delivery_ok_total{sink="exec"} 1`} {
		if !strings.Contains(promBody, line+"\n") {
			t.Fatalf("prom exposition missing %q:\n%s", line, promBody)
		}
	}

	// Recovery resolves the episode through the same sinks.
	fed += feedFrames(t, addr, appFrames(t, appsim.Zoom, 5))
	waitFed(t, d, fed)
	waitLog(t, out, "alert floor resolved: app=call")
	if lines := waitExecLines(t, execPath, 2); len(lines) != 2 || lines[1] != "resolve.floor.call" {
		t.Fatalf("exec sink after resolve: %v", lines)
	}
	getJSON(t, api+"/compliance/alerts", &snap)
	if snap.Firing != 0 || snap.States[0].Firing {
		t.Fatalf("episode did not resolve: %+v", snap)
	}

	stopDaemon(t, d, errCh)
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitEvaluated polls /compliance/alerts until the first rule state has
// evaluated a point newer than after.
func waitEvaluated(t *testing.T, api string, after time.Time) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var snap alert.Snapshot
		getJSON(t, api+"/compliance/alerts", &snap)
		if len(snap.States) > 0 && snap.States[0].Evaluated.After(after) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for an evaluation after %v", after)
}
