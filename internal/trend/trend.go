// Package trend is the compliance daemon's time-series store: one
// Point per finished analysis epoch, appended to a JSONL file on disk
// and mirrored in a bounded in-memory ring for queries. Opening an
// existing file reloads the ring, so the series survives a process
// restart; the HTTP handler serves the ring under the daemon's metrics
// endpoint as /compliance/trend.
//
// The schema is deliberately small and flat — one line per epoch, cheap
// to append, greppable, and trivially ingestible by any downstream
// tooling — rather than a real TSDB: a daemon emitting one point per
// epoch (seconds to minutes) writes a few hundred bytes a minute.
package trend

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/rtc-compliance/rtcc/internal/qoe"
)

// Point is one epoch's compliance summary for one application label.
type Point struct {
	// Time is when the epoch was finalized.
	Time time.Time `json:"ts"`
	// App is the application label the epoch analyzed under.
	App string `json:"app"`
	// Reason records why the epoch ended: "epoch" (timer), "reload"
	// (SIGHUP config swap), or "shutdown" (SIGTERM drain).
	Reason string `json:"reason,omitempty"`
	// Messages and Compliant count extracted protocol messages and the
	// compliant subset; VolumeCompliance is their ratio (absent when no
	// messages were seen).
	Messages         int      `json:"messages"`
	Compliant        int      `json:"compliant"`
	VolumeCompliance *float64 `json:"volume_compliance,omitempty"`
	// TypesTotal and TypesCompliant are the message-type compliance
	// counts (a type is compliant when every instance passed).
	TypesTotal     int `json:"types_total"`
	TypesCompliant int `json:"types_compliant"`
	// Datagrams counts classified datagrams in the epoch.
	Datagrams int `json:"datagrams"`
	// Fed, Analyzed, and Dropped are the ingest accounting at the end
	// of the epoch (session-local, not cumulative). Conservation holds
	// per point: Fed == Analyzed + Dropped.
	Fed      uint64 `json:"fed"`
	Analyzed uint64 `json:"analyzed"`
	Dropped  uint64 `json:"dropped"`
	// QoE is the epoch's header-free QoE summary over media streams
	// (see internal/qoe). Absent when estimation is off or no stream
	// passed the media gate.
	QoE *qoe.Summary `json:"qoe,omitempty"`
}

// DefaultKeep bounds the in-memory ring when the caller does not.
const DefaultKeep = 1024

// Store is a JSONL-backed time series with a bounded in-memory ring.
// Safe for concurrent use (the daemon appends while HTTP queries read).
type Store struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	path   string
	keep   int
	points []Point
	torn   int
}

// Open loads (or creates) the store at path, replaying any existing
// points into the ring. keep bounds the ring (<=0 selects DefaultKeep).
// The file is append-only, with one exception: an unterminated final
// line is a torn write (a crash mid-Append), so Open truncates the file
// to the end of the last complete line, drops the partial point, and
// counts it (TornLines). A malformed complete line is an error. An
// empty path keeps the series in memory only (the ring still serves
// queries, but nothing survives a restart).
func Open(path string, keep int) (*Store, error) {
	if keep <= 0 {
		keep = DefaultKeep
	}
	s := &Store{path: path, keep: keep}
	if path == "" {
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trend: %w", err)
	}
	if err := s.replay(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("trend: %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("trend: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	return s, nil
}

// replay loads f's complete lines into the ring and cuts off a torn
// final line.
func (s *Store) replay(f *os.File) error {
	r := bufio.NewReader(f)
	var end int64 // offset just past the last complete line
	for line := 1; ; line++ {
		b, err := r.ReadBytes('\n')
		if err == io.EOF {
			if len(b) == 0 {
				return nil
			}
			s.torn++
			return f.Truncate(end)
		}
		if err != nil {
			return err
		}
		end += int64(len(b))
		if len(bytes.TrimRight(b, "\r\n")) == 0 {
			continue
		}
		var p Point
		if err := json.Unmarshal(b, &p); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		s.add(p)
	}
}

// TornLines reports how many torn final lines Open cut off the file
// (0 or 1): each is one point a crash kept from being persisted.
func (s *Store) TornLines() int { return s.torn }

// add pushes p onto the ring, evicting the oldest past keep.
func (s *Store) add(p Point) {
	s.points = append(s.points, p)
	if len(s.points) > s.keep {
		n := copy(s.points, s.points[len(s.points)-s.keep:])
		s.points = s.points[:n]
	}
}

// Append records one point: a JSON line flushed to disk plus the ring.
func (s *Store) Append(p Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		buf, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("trend: %w", err)
		}
		if _, err := s.w.Write(append(buf, '\n')); err != nil {
			return fmt.Errorf("trend: %w", err)
		}
		if err := s.w.Flush(); err != nil {
			return fmt.Errorf("trend: %w", err)
		}
	}
	s.add(p)
	return nil
}

// Points snapshots the ring, oldest first.
func (s *Store) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Path reports the backing file.
func (s *Store) Path() string { return s.path }

// Close flushes and closes the backing file. The ring stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// trendResponse is the /compliance/trend wire shape.
type trendResponse struct {
	Points []Point `json:"points"`
}

// ParseSince resolves a since= query value: an RFC 3339 timestamp is a
// cutoff directly; a Go duration ("15m", "1h30m") means that long
// before now.
func ParseSince(v string, now time.Time) (time.Time, error) {
	if ts, err := time.Parse(time.RFC3339, v); err == nil {
		return ts, nil
	}
	if d, err := time.ParseDuration(v); err == nil && d >= 0 {
		return now.Add(-d), nil
	}
	return time.Time{}, fmt.Errorf("trend: bad since value %q (want RFC3339 timestamp or duration)", v)
}

// writeJSONError is the handler's error path: errors are JSON like
// every success body, so clients can parse /compliance/trend responses
// with one decoder.
func writeJSONError(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck // client gone
}

// Handler serves the ring as JSON (Content-Type: application/json on
// every response, errors included). Query parameters:
//
//	app=NAME     only points for this application label
//	since=WHEN   only points at or after WHEN: an RFC 3339 timestamp,
//	             or a duration ("15m") meaning that long before now
//	last=N       only the most recent N matching points
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		pts := s.Points()
		if app := req.URL.Query().Get("app"); app != "" {
			filtered := pts[:0]
			for _, p := range pts {
				if p.App == app {
					filtered = append(filtered, p)
				}
			}
			pts = filtered
		}
		if sinceStr := req.URL.Query().Get("since"); sinceStr != "" {
			cutoff, err := ParseSince(sinceStr, time.Now())
			if err != nil {
				writeJSONError(w, err.Error(), http.StatusBadRequest)
				return
			}
			filtered := pts[:0]
			for _, p := range pts {
				if !p.Time.Before(cutoff) {
					filtered = append(filtered, p)
				}
			}
			pts = filtered
		}
		if lastStr := req.URL.Query().Get("last"); lastStr != "" {
			n, err := strconv.Atoi(lastStr)
			if err != nil || n < 0 {
				writeJSONError(w, "trend: bad last parameter", http.StatusBadRequest)
				return
			}
			if n < len(pts) {
				pts = pts[len(pts)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(trendResponse{Points: pts}) //nolint:errcheck // client gone
	})
}
