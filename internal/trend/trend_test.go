package trend

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/qoe"
)

func pt(app string, fed uint64) Point {
	v := 0.75
	return Point{
		Time: time.Unix(1700000000, 0).UTC(), App: app, Reason: "epoch",
		Messages: 100, Compliant: 75, VolumeCompliance: &v,
		TypesTotal: 10, TypesCompliant: 8, Datagrams: 120,
		Fed: fed, Analyzed: fed, Dropped: 0,
	}
}

func TestAppendAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.jsonl")
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(pt("Zoom", uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the series must survive the restart.
	s2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pts := s2.Points()
	if len(pts) != 3 {
		t.Fatalf("got %d points after reload, want 3", len(pts))
	}
	if pts[2].Fed != 3 || pts[2].App != "Zoom" {
		t.Fatalf("last point = %+v", pts[2])
	}
	if pts[0].VolumeCompliance == nil || *pts[0].VolumeCompliance != 0.75 {
		t.Fatalf("volume compliance not round-tripped: %+v", pts[0])
	}
	// Appending after a reload extends the same file.
	if err := s2.Append(pt("Zoom", 4)); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Points()); got != 4 {
		t.Fatalf("got %d points, want 4", got)
	}
}

func TestRingBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.jsonl")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Append(pt("Zoom", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	pts := s.Points()
	if len(pts) != 2 || pts[0].Fed != 3 || pts[1].Fed != 4 {
		t.Fatalf("ring = %+v, want the last two points", pts)
	}
}

func TestOpenRejectsCorruptLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trend.jsonl")
	if err := writeFile(path, "{\"ts\":\"2026-01-01T00:00:00Z\"}\nnot json\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatal("Open accepted a corrupt trend file")
	}
}

func TestOpenTruncatesTornLine(t *testing.T) {
	// A crash mid-Append leaves an unterminated final line: Open must
	// drop it rather than refuse to start, and the next Append must
	// begin on a fresh line.
	path := filepath.Join(t.TempDir(), "trend.jsonl")
	var content []byte
	for i := 1; i <= 2; i++ {
		b, err := json.Marshal(pt("Zoom", uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		content = append(append(content, b...), '\n')
	}
	whole := len(content)
	third, err := json.Marshal(pt("Zoom", 3))
	if err != nil {
		t.Fatal(err)
	}
	content = append(content, third[:len(third)/2]...)
	if err := writeFile(path, string(content)); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open with a torn final line: %v", err)
	}
	if got := len(s.Points()); got != 2 {
		t.Fatalf("got %d points, want the 2 complete ones", got)
	}
	if s.TornLines() != 1 {
		t.Fatalf("TornLines = %d, want 1", s.TornLines())
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() != int64(whole) {
		t.Fatalf("file is %d bytes, want %d (cut to the last complete line)", fi.Size(), whole)
	}
	if err := s.Append(pt("Zoom", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pts := s2.Points()
	if len(pts) != 3 || pts[2].Fed != 3 {
		t.Fatalf("reopen: got %+v, want 3 points ending with fed=3", pts)
	}
	if s2.TornLines() != 0 {
		t.Fatalf("reopen: TornLines = %d, want 0", s2.TornLines())
	}
}

func TestHandlerFilters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.jsonl")
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Append(pt("Zoom", uint64(i)))
	}
	s.Append(pt("Discord", 9))

	get := func(url string) trendResponse {
		t.Helper()
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		var resp trendResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return resp
	}

	if got := get("/compliance/trend"); len(got.Points) != 4 {
		t.Fatalf("unfiltered: %d points, want 4", len(got.Points))
	}
	if got := get("/compliance/trend?app=Discord"); len(got.Points) != 1 || got.Points[0].Fed != 9 {
		t.Fatalf("app filter: %+v", got.Points)
	}
	if got := get("/compliance/trend?app=Zoom&last=2"); len(got.Points) != 2 || got.Points[1].Fed != 2 {
		t.Fatalf("last filter: %+v", got.Points)
	}

	req := httptest.NewRequest("GET", "/compliance/trend?last=bogus", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("bad last parameter: status %d, want 400", rec.Code)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestParseSince(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	got, err := ParseSince("2026-08-08T10:30:00Z", now)
	if err != nil || !got.Equal(time.Date(2026, 8, 8, 10, 30, 0, 0, time.UTC)) {
		t.Fatalf("RFC3339: %v %v", got, err)
	}
	got, err = ParseSince("90m", now)
	if err != nil || !got.Equal(now.Add(-90*time.Minute)) {
		t.Fatalf("duration: %v %v", got, err)
	}
	for _, bad := range []string{"yesterday", "-5m", ""} {
		if _, err := ParseSince(bad, now); err == nil {
			t.Errorf("ParseSince(%q): expected error", bad)
		}
	}
}

func TestHandlerSinceFilter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.jsonl")
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three points spaced one hour apart; pt() pins Time, so shift it.
	for i := 0; i < 3; i++ {
		p := pt("Zoom", uint64(i))
		p.Time = time.Date(2026, 8, 8, 9+i, 0, 0, 0, time.UTC)
		s.Append(p)
	}

	req := httptest.NewRequest("GET", "/compliance/trend?since=2026-08-08T10:00:00Z", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var resp trendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The cutoff is inclusive: the 10:00 and 11:00 points survive.
	if len(resp.Points) != 2 || resp.Points[0].Fed != 1 {
		t.Fatalf("since filter: %+v", resp.Points)
	}

	// Bad since values produce a JSON error body, not text/plain.
	req = httptest.NewRequest("GET", "/compliance/trend?since=tomorrow", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("bad since: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("bad since content type %q", ct)
	}
	var jsonErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &jsonErr); err != nil || jsonErr.Error == "" {
		t.Fatalf("error body %q (%v)", rec.Body.String(), err)
	}
}

func TestPointQoERoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.jsonl")
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := pt("Zoom", 1)
	p.QoE = &qoe.Summary{
		MediaStreams: 2, FrameRate: 29.97, BitrateKbps: 1500.5,
		GapJitterMs: 1.25, Stalls: 1, StallSeconds: 0.5, LongestStallSeconds: 0.5,
	}
	if err := s.Append(p); err != nil {
		t.Fatal(err)
	}
	// A point without QoE must omit the key entirely.
	if err := s.Append(pt("Zoom", 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !strings.Contains(lines[0], `"qoe":{`) {
		t.Fatalf("qoe not serialized: %s", lines[0])
	}
	if strings.Contains(lines[1], `"qoe"`) {
		t.Fatalf("qoe key present without data: %s", lines[1])
	}

	s2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pts := s2.Points()
	if pts[0].QoE == nil || pts[0].QoE.FrameRate != 29.97 || pts[0].QoE.Stalls != 1 {
		t.Fatalf("qoe not round-tripped: %+v", pts[0].QoE)
	}
	if pts[1].QoE != nil {
		t.Fatalf("phantom qoe on second point: %+v", pts[1].QoE)
	}
}
