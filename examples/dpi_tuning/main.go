// DPI tuning: reproduce the paper's §4.1.1 offset-limit experiment.
//
// Candidate extraction shifts the scan cursor from byte offset 0 up to
// a limit k. A small k misses messages hidden deep behind proprietary
// headers; a large k costs CPU on every fully proprietary datagram.
// The paper found k=200 recovers the same validated message set as a
// full-payload scan. This example sweeps k over one representative
// trace per application and prints recall and runtime.
package main

import (
	"fmt"
	"log"
	"time"

	rtcc "github.com/rtc-compliance/rtcc"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

func main() {
	ks := []int{8, 16, 32, 64, 128, 200, 400, 1500}

	for _, app := range rtcc.Apps {
		cap, err := rtcc.GenerateCapture(rtcc.CaptureConfig{
			App: app, Network: rtcc.WiFiRelay, Seed: 3,
			Start:        time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
			CallDuration: 10 * time.Second, PrePost: 2 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		streams := streamRecords(cap)

		// Reference: full-payload extraction.
		ref := countMessages(streams, 1500)

		fmt.Printf("%s (%d datagrams, reference %d messages):\n", app, datagramCount(streams), ref)
		for _, k := range ks {
			start := time.Now()
			got := countMessages(streams, k)
			elapsed := time.Since(start)
			marker := ""
			if got == ref {
				marker = "  <- full recall"
			}
			fmt.Printf("  k=%-5d %6d messages (%.1f%% recall) in %8v%s\n",
				k, got, 100*float64(got)/float64(max(1, ref)), elapsed.Round(100*time.Microsecond), marker)
		}
		fmt.Println()
	}
	fmt.Println("The paper's k=200 achieves full recall on every application at a")
	fmt.Println("fraction of the full-scan cost on proprietary-heavy traffic (Zoom).")
}

func streamRecords(cap *rtcc.Capture) [][]flow.Packet {
	table := flow.NewTable()
	for _, f := range cap.Frames() {
		pkt, err := layers.Decode(pcap.LinkTypeRaw, f.Data)
		if err != nil {
			continue
		}
		table.Add(f.Timestamp, pkt)
	}
	var out [][]flow.Packet
	for _, s := range table.Streams() {
		if s.Key.Proto == layers.IPProtocolUDP {
			out = append(out, s.Packets)
		}
	}
	return out
}

func datagramCount(streams [][]flow.Packet) int {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	return n
}

func countMessages(streams [][]flow.Packet, k int) int {
	engine := &dpi.Engine{MaxOffset: k}
	n := 0
	for _, recs := range streams {
		for _, r := range engine.NewStreamInspector().Finalize(recs) {
			n += len(r.Messages)
		}
	}
	return n
}
