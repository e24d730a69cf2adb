package metrics

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func promBody(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func wantLines(t *testing.T, body string, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("exposition missing line %q\n--- got ---\n%s", line, body)
		}
	}
}

func TestWritePromCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_fed_total").Add(12)
	r.Counter("verdicts_total", L("app", "Zoom")).Add(3)
	r.Counter("verdicts_total", L("app", "Discord")).Add(5)
	r.Gauge("shards").Set(4)
	body := promBody(t, r)
	wantLines(t, body,
		"# TYPE rtcc_frames_fed_total counter",
		"rtcc_frames_fed_total 12",
		"# TYPE rtcc_verdicts_total counter",
		`rtcc_verdicts_total{app="Discord"} 5`,
		`rtcc_verdicts_total{app="Zoom"} 3`,
		"# TYPE rtcc_shards gauge",
		"rtcc_shards 4",
	)
	// One TYPE line per family even with several label sets.
	if got := strings.Count(body, "# TYPE rtcc_verdicts_total "); got != 1 {
		t.Fatalf("verdicts_total TYPE lines = %d, want 1", got)
	}
}

func TestWritePromDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("app", "Zoom")).Inc()
	r.Counter("a_total").Inc()
	r.Counter("b_total", L("app", "Discord")).Inc()
	first := promBody(t, r)
	for i := 0; i < 5; i++ {
		if again := promBody(t, r); again != first {
			t.Fatal("consecutive scrapes of an idle registry differ")
		}
	}
	if strings.Index(first, "rtcc_a_total") > strings.Index(first, "rtcc_b_total") {
		t.Fatal("families not sorted by name")
	}
	if strings.Index(first, `app="Discord"`) > strings.Index(first, `app="Zoom"`) {
		t.Fatal("samples not sorted by label set")
	}
}

func TestWritePromHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	h.Observe(0.05) // bucket le=0.05
	h.Observe(0.5)  // bucket le=0.5
	h.Observe(0.7)  // bucket le=1
	h.Observe(20)   // overflow -> +Inf only
	body := promBody(t, r)
	wantLines(t, body,
		"# TYPE rtcc_lat_seconds histogram",
		`rtcc_lat_seconds_bucket{le="0.1"} 1`,
		`rtcc_lat_seconds_bucket{le="1"} 3`,
		`rtcc_lat_seconds_bucket{le="10"} 3`,
		`rtcc_lat_seconds_bucket{le="+Inf"} 4`,
		"rtcc_lat_seconds_count 4",
	)
	if !strings.Contains(body, "rtcc_lat_seconds_sum 21.25") {
		t.Fatalf("missing/incorrect _sum line in:\n%s", body)
	}
}

func TestWritePromHistogramLabels(t *testing.T) {
	r := NewRegistry()
	r.Histogram("epoch_seconds", L("shard", "0")).Observe(0.5)
	body := promBody(t, r)
	wantLines(t, body,
		`rtcc_epoch_seconds_bucket{shard="0",le="1"} 1`,
		`rtcc_epoch_seconds_bucket{shard="0",le="+Inf"} 1`,
		`rtcc_epoch_seconds_count{shard="0"} 1`,
	)
}

func TestPromNameSanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird.name-1", L("app", `va"l\ue`)).Inc()
	body := promBody(t, r)
	wantLines(t, body, `rtcc_weird_name_1{app="va\"l\\ue"} 1`)
}

func TestSanitize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"frames_total", "frames_total"},
		{"1bad", "_1bad"},
		{"a.b-c", "a_b_c"},
	}
	for _, c := range cases {
		if got := sanitize(c.in, true); got != c.want {
			t.Errorf("sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMetricsHandlerPromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_fed_total").Add(9)
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()

	for _, format := range []string{"prom", "prometheus"} {
		resp, err := http.Get(ts.URL + "/metrics?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		code, body := resp.StatusCode, readAll(t, resp)
		if code != http.StatusOK {
			t.Fatalf("format=%s status %d", format, code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
			t.Fatalf("format=%s content type %q", format, ct)
		}
		if !strings.Contains(body, "rtcc_frames_fed_total 9") {
			t.Fatalf("format=%s body:\n%s", format, body)
		}
	}

	// JSON stays the default and the explicit json format.
	for _, url := range []string{ts.URL + "/metrics", ts.URL + "/metrics?format=json"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			t.Fatalf("%s content type %q", url, resp.Header.Get("Content-Type"))
		}
		if !strings.Contains(body, `"frames_fed_total"`) {
			t.Fatalf("%s body:\n%s", url, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml status %d, want 400", resp.StatusCode)
	}
}
