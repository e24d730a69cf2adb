package trace

import (
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
)

// generateAllocBounds caps the allocations of generating and encoding
// one paper-matrix-shaped call per app (3 s Wi-Fi relay call, 500 ms
// pre/post, background on): the count measured when the bound was set,
// plus about 3 %, so one more allocation per datagram fails it.
var generateAllocBounds = map[appsim.App]float64{
	appsim.Zoom:       1220, // measured 1,180
	appsim.FaceTime:   1265, // measured 1,224
	appsim.WhatsApp:   1315, // measured 1,273
	appsim.Messenger:  1565, // measured 1,516
	appsim.Discord:    1130, // measured 1,094
	appsim.GoogleMeet: 1780, // measured 1,727
}

// TestGenerateAllocs gates allocation on the generation path: Generate
// followed by Input, which encodes every frame.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation counts are not stable")
	}
	for _, app := range appsim.Apps {
		cfg := CaptureConfig{
			App: app, Network: appsim.WiFiRelay, Seed: 1,
			Start:        time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
			CallDuration: 3 * time.Second, PrePost: 500 * time.Millisecond,
			Background: true,
		}
		allocs := testing.AllocsPerRun(5, func() {
			c, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Input()
		})
		t.Logf("%s: %.0f allocs", app, allocs)
		if allocs > generateAllocBounds[app] {
			t.Errorf("%s: Generate + Input allocates %.0f, bound %.0f", app, allocs, generateAllocBounds[app])
		}
	}
}
