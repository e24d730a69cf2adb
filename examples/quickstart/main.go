// Quickstart: generate one synthetic Zoom call over a relay network,
// run the full compliance pipeline on it, and print what the paper's
// methodology finds.
package main

import (
	"fmt"
	"log"
	"time"

	rtcc "github.com/rtc-compliance/rtcc"
)

func main() {
	// 1. Generate a 15-second Zoom call on Wi-Fi with hole punching
	// blocked (relay mode), with background phone noise mixed in.
	cap, err := rtcc.GenerateCapture(rtcc.CaptureConfig{
		App:          rtcc.Zoom,
		Network:      rtcc.WiFiRelay,
		Seed:         42,
		Start:        time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
		CallDuration: 15 * time.Second,
		PrePost:      10 * time.Second,
		Background:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d packets (%s mode call)\n", len(cap.Events), cap.Mode)

	// 2. Analyze: filter unrelated traffic, extract messages with the
	// offset-shifting DPI, judge each against the five criteria.
	res, err := rtcc.Analyze(cap, rtcc.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Report.
	f := res.Filter
	fmt.Printf("filtering: %d raw streams -> %d RTC streams (removed %d)\n",
		f.RawUDP.Streams+f.RawTCP.Streams,
		len(f.RTC), len(f.RemovedStreams))

	if ratio, ok := res.Stats.VolumeCompliance(); ok {
		fmt.Printf("volume compliance: %.2f%% of extracted messages\n", 100*ratio)
	}
	compliant, total := res.Stats.TypeCompliance(0)
	fmt.Printf("type compliance:   %d of %d observed message types\n", compliant, total)

	for key, ts := range res.Stats.Types {
		if ts.Compliant() {
			continue
		}
		fmt.Printf("  non-compliant %-18s %s\n", key.String()+":", ts.TopReason())
	}

	for _, finding := range res.Findings {
		fmt.Printf("behavioural finding [%s]: %s\n", finding.Kind, finding.Detail)
	}
}
