package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", L("app", "Zoom")).Add(7)
	r.Histogram("lat_seconds").Observe(0.001)
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	if snap.Counters["requests_total{app=Zoom}"] != 7 {
		t.Errorf("/metrics counters = %v", snap.Counters)
	}
	if snap.Histograms["lat_seconds"].Count != 1 {
		t.Errorf("/metrics histograms = %v", snap.Histograms)
	}

	code, body = get(t, ts.URL+"/debug/vars")
	if code != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/debug/vars status %d body %.60q", code, body)
	}

	code, body = get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, _ = get(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServeLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, `"x": 1`) {
		t.Errorf("served /metrics: status %d body %.120q", code, body)
	}
	// The registry is published to expvar as "rtcc".
	code, body = get(t, "http://"+srv.Addr()+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"rtcc"`) {
		t.Errorf("/debug/vars missing published registry: status %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.PublishExpvar("metrics_test_pub")
	r2 := NewRegistry()
	// Must not panic on duplicate publish.
	r2.PublishExpvar("metrics_test_pub")
}
