package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/natsim"
)

var update = flag.Bool("update", false, "rewrite the golden capture digests")

// goldenStart is the fixed start time every pinned capture uses; a
// capture stamped with the wall clock could never be pinned.
var goldenStart = time.Date(2025, 3, 1, 12, 0, 0, 0, time.UTC)

func goldenConfig(app appsim.App, network appsim.Network, seed uint64) CaptureConfig {
	return CaptureConfig{
		App: app, Network: network, Seed: seed,
		Start:        goldenStart,
		CallDuration: 5 * time.Second,
		PrePost:      2 * time.Second,
		Background:   true,
	}
}

// goldenCaptures lists every pinned capture by name: each app ×
// network at two seeds, each named impairment profile, bursting video
// with bit-rate variance, DTLS, bulk background, and a Zoom and a Meet
// group call.
func goldenCaptures(t *testing.T) []struct {
	name string
	cap  *Capture
} {
	var out []struct {
		name string
		cap  *Capture
	}
	add := func(name string, c *Capture) {
		out = append(out, struct {
			name string
			cap  *Capture
		}{name, c})
	}
	gen := func(name string, cfg CaptureConfig) {
		c, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, c)
	}
	for _, seed := range []uint64{3, 17} {
		for _, app := range appsim.Apps {
			for _, network := range appsim.Networks {
				gen(fmt.Sprintf("%s/%s/seed%d", app, network, seed), goldenConfig(app, network, seed))
			}
		}
	}
	for i, p := range natsim.AdverseProfiles() {
		cfg := goldenConfig(appsim.Apps[i%len(appsim.Apps)], appsim.WiFiRelay, 5)
		cfg.Impair = p
		gen(fmt.Sprintf("impair/%s/%s", p.Name, cfg.App), cfg)
	}
	for _, app := range []appsim.App{appsim.Zoom, appsim.GoogleMeet, appsim.FaceTime} {
		cfg := goldenConfig(app, appsim.WiFiRelay, 9)
		cfg.Burst, cfg.BitrateVar, cfg.FrameRate = true, 0.4, 24
		gen(fmt.Sprintf("burst/%s", app), cfg)
	}
	for _, app := range []appsim.App{appsim.Discord, appsim.Messenger} {
		cfg := goldenConfig(app, appsim.Cellular, 11)
		cfg.DTLS = true
		gen(fmt.Sprintf("dtls/%s", app), cfg)
	}
	bulk := goldenConfig(appsim.Zoom, appsim.WiFiP2P, 13)
	bulk.BackgroundBulk = 900
	gen("bulk/Zoom", bulk)
	for _, app := range []appsim.App{appsim.Zoom, appsim.GoogleMeet} {
		call, err := appsim.GenerateGroup(appsim.GroupCallConfig{
			App: app, Participants: 4, Seed: 21,
			Start: goldenStart, Duration: 5 * time.Second,
			ForceSSRCCollision: app == appsim.Zoom,
		})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("group/%s", app), &Capture{Events: call.Events})
	}
	return out
}

// TestGeneratedBytesGolden pins the bytes generation writes: the
// SHA-256 of each pinned capture's WritePCAP output against
// testdata/generated.golden. The analysis goldens cannot see a changed
// encrypted payload or header byte that leaves every verdict the same;
// this test can. Run with -update after an intentional change.
func TestGeneratedBytesGolden(t *testing.T) {
	var got strings.Builder
	for _, g := range goldenCaptures(t) {
		h := sha256.New()
		if err := g.cap.WritePCAP(h); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&got, "%s %d %s\n", hex.EncodeToString(h.Sum(nil)), len(g.cap.Events), g.name)
	}
	golden := filepath.Join("testdata", "generated.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := ""
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("generated bytes changed (run with -update if intentional)\ngot:  %s\nwant: %s", gl[i], w)
			}
		}
		if len(wl) > len(gl) {
			t.Errorf("golden lists %d captures, generated %d", len(wl)-1, len(gl)-1)
		}
	}
}
