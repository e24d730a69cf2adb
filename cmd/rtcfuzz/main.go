// Command rtcfuzz builds fuzz corpora from RTC captures: it extracts
// the validated protocol messages from a pcap with the DPI engine and
// writes deterministic mutated variants, ready to throw at any RTC
// parser under test. This implements the "foundation for fuzz testing"
// use the paper names for its released framework.
//
// Usage:
//
//	rtcfuzz -pcap traces/000_zoom_wi-fi-p2p.pcap -out corpus/ -n 500
//	rtcfuzz -pcap call.pcap -out corpus/ -strategy truncate,type-swap
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/rtc-compliance/rtcc/internal/cmdutil"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/mutate"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
)

// newFlags registers rtcfuzz's flag surface (pinned by the golden
// surface test).
func newFlags() (fs *flag.FlagSet, pcapPath, outDir *string, n *int, seed *uint64,
	strategy *string, keepSeeds, version *bool) {
	fs = flag.NewFlagSet("rtcfuzz", flag.ExitOnError)
	pcapPath = fs.String("pcap", "", "capture to harvest seed messages from")
	outDir = fs.String("out", "corpus", "output directory for corpus files")
	n = fs.Int("n", 200, "number of mutated variants to write")
	seed = fs.Uint64("seed", 1, "mutation seed (corpus is reproducible)")
	strategy = fs.String("strategy", "", "comma-separated strategies (default: all)")
	keepSeeds = fs.Bool("seeds", true, "also write the unmutated seed messages")
	version = cmdutil.VersionFlag(fs)
	return
}

func main() {
	fs, pcapPath, outDir, n, seed, strategy, keepSeeds, version := newFlags()
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if *version {
		cmdutil.PrintVersion(os.Stdout, "rtcfuzz")
		return
	}
	if *pcapPath == "" {
		fmt.Fprintln(os.Stderr, "rtcfuzz: -pcap is required")
		os.Exit(2)
	}
	if err := run(*pcapPath, *outDir, *n, *seed, *strategy, *keepSeeds); err != nil {
		fmt.Fprintln(os.Stderr, "rtcfuzz:", err)
		os.Exit(1)
	}
}

func run(pcapPath, outDir string, n int, seed uint64, strategy string, keepSeeds bool) error {
	f, err := os.Open(pcapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewCaptureReader(f)
	if err != nil {
		return err
	}
	frames, linkType, err := r.ReadAll()
	if err != nil {
		return err
	}

	// Harvest validated messages per stream.
	table := flow.NewTable()
	for _, fr := range frames {
		pkt, err := layers.Decode(linkType, fr.Data)
		if err != nil {
			continue
		}
		table.Add(fr.Timestamp, pkt)
	}
	engine := dpi.NewEngine()
	var seedMsgs [][]byte
	for _, s := range table.Streams() {
		if s.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		for i, res := range engine.NewStreamInspector().Finalize(s.Packets) {
			for _, m := range res.Messages {
				msg := s.Packets[i].Payload[m.Offset : m.Offset+m.Length]
				seedMsgs = append(seedMsgs, msg)
			}
		}
	}
	if len(seedMsgs) == 0 {
		return fmt.Errorf("no protocol messages found in %s", pcapPath)
	}
	// Deduplicate identical seeds to keep the corpus diverse.
	seen := map[string]bool{}
	var unique [][]byte
	for _, m := range seedMsgs {
		k := string(m)
		if !seen[k] {
			seen[k] = true
			unique = append(unique, m)
		}
	}

	fz := mutate.New(seed)
	if strategy != "" {
		for _, name := range strings.Split(strategy, ",") {
			fz.Allowed = append(fz.Allowed, mutate.Strategy(strings.TrimSpace(name)))
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	written := 0
	if keepSeeds {
		for i, m := range unique {
			name := filepath.Join(outDir, fmt.Sprintf("seed_%04d.bin", i))
			if err := os.WriteFile(name, m, 0o644); err != nil {
				return err
			}
			written++
		}
	}
	for i := 0; i < n; i++ {
		m, strat := fz.Mutate(unique[i%len(unique)])
		name := filepath.Join(outDir, fmt.Sprintf("mut_%05d_%s.bin", i, strat))
		if err := os.WriteFile(name, m, 0o644); err != nil {
			return err
		}
		written++
	}
	fmt.Printf("harvested %d unique seed messages from %d datagram payloads; wrote %d corpus files to %s\n",
		len(unique), table.PacketCount(), written, outDir)
	return nil
}
