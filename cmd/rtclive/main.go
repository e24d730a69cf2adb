// Command rtclive moves captures over the network and runs the
// always-on compliance service: `replay` streams a pcap file to a
// remote collector with original (scaled) timing, `collect` receives
// such a stream, optionally analyzing it on the fly and/or writing it
// back out as a pcap file, and `daemon` runs a collector continuously
// from a declarative config file — epoch-rotated analysis, a persisted
// per-app compliance trend served at /compliance/trend, SIGHUP config
// reload, and graceful SIGTERM drain.
//
// Usage:
//
//	rtclive collect -listen :9898 -out received.pcap -analyze
//	rtclive replay  -pcap traces/000_zoom_wi-fi-p2p.pcap -to host:9898 -speed 50
//	rtclive daemon  -config rtclive.yaml
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/rtc-compliance/rtcc/internal/cmdutil"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/live"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "replay":
		err = runReplay(os.Args[2:])
	case "collect":
		err = runCollect(os.Args[2:])
	case "daemon":
		err = runDaemon(os.Args[2:])
	case "-version", "--version", "version":
		cmdutil.PrintVersion(os.Stdout, "rtclive")
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtclive:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rtclive replay  -pcap FILE -to HOST:PORT [-speed N] [-metrics-addr ADDR]
  rtclive collect -listen ADDR [-out FILE] [-analyze] [-max N] [-idle DUR] [-metrics-addr ADDR] [-trace-out FILE]
  rtclive daemon  -config FILE
  rtclive -version`)
	os.Exit(2)
}

// replayFlags is the replay subcommand's surface (pinned by the golden
// surface test).
func replayFlags() (*flag.FlagSet, *struct {
	pcapPath, to *string
	speed        *float64
	metAddr      *string
}) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	v := &struct {
		pcapPath, to *string
		speed        *float64
		metAddr      *string
	}{
		pcapPath: fs.String("pcap", "", "pcap file to replay"),
		to:       fs.String("to", "", "collector address host:port"),
		speed:    fs.Float64("speed", 10, "time compression factor (<=0: no pacing)"),
		metAddr:  cmdutil.MetricsAddrFlag(fs),
	}
	return fs, v
}

func runReplay(args []string) error {
	fs, v := replayFlags()
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *v.pcapPath == "" || *v.to == "" {
		return fmt.Errorf("replay requires -pcap and -to")
	}
	_, stopMetrics, err := cmdutil.ServeMetrics("rtclive", *v.metAddr)
	if err != nil {
		return err
	}
	defer stopMetrics()

	frames, err := readReplayFrames(*v.pcapPath)
	if err != nil {
		return err
	}

	exp, err := live.Dial(*v.to)
	if err != nil {
		return err
	}
	defer exp.Close()
	exp.Speed = *v.speed
	if *v.speed <= 0 {
		exp.Speed = live.SpeedInstant
	}

	begin := time.Now()
	if err := exp.Replay(context.Background(), frames); err != nil {
		return err
	}
	fmt.Printf("replayed %d frames to %s in %v\n", len(frames), *v.to, time.Since(begin).Round(time.Millisecond))
	return nil
}

// readReplayFrames reads a classic pcap or pcapng capture for replay.
// The collector decodes every frame as raw IP, so a capture with any
// other link type is rejected rather than replayed as undecodable
// frames.
func readReplayFrames(path string) ([]pcap.Packet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := pcap.NewCaptureReader(f)
	if err != nil {
		return nil, err
	}
	frames, linkType, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	if linkType != pcap.LinkTypeRaw {
		return nil, fmt.Errorf("%s has link type %v; the collector decodes raw IP (%v) only", path, linkType, pcap.LinkTypeRaw)
	}
	return frames, nil
}

// collectVals is the collect subcommand's flag surface.
type collectVals struct {
	listen, out       *string
	analyze           *bool
	shards            *int
	maxFrames         *int
	idle, evict       *time.Duration
	reorder           *int
	metAddr, traceOut *string
}

func collectFlags() (*flag.FlagSet, *collectVals) {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	v := &collectVals{
		listen:    fs.String("listen", ":9898", "UDP listen address"),
		out:       fs.String("out", "", "write the received frames to this pcap file"),
		analyze:   fs.Bool("analyze", false, "run the compliance pipeline on the received capture"),
		maxFrames: fs.Int("max", 0, "stop after this many frames (0 = until idle)"),
		idle:      fs.Duration("idle", 3*time.Second, "stop after this long without frames"),
		evict:     fs.Duration("evict", 0, "finalize streams idle this long to bound analysis memory (0 = off)"),
		reorder:   fs.Int("reorder", 256, "reorder-buffer depth for the streaming analysis"),
	}
	v.shards = cmdutil.ShardsFlag(fs)
	v.metAddr = cmdutil.MetricsAddrFlag(fs)
	v.traceOut = cmdutil.TraceOutFlag(fs, "(requires -analyze)")
	return fs, v
}

// config assembles the collect run's pipeline config.
func (v *collectVals) config() pipeline.Config {
	var cfg pipeline.Config
	cfg.Source.Kind = pipeline.SourceLive
	cfg.Source.Label = "live"
	cfg.Source.Listen = *v.listen
	cfg.Source.Idle = pipeline.Duration(*v.idle)
	cfg.Source.MaxFrames = *v.maxFrames
	cfg.Source.Reorder = *v.reorder
	cfg.Exec.Shards = *v.shards
	if *v.out != "" {
		// -out analyzes the collected frames from memory after the
		// socket has closed, so waiting for a full shard queue loses
		// nothing upstream: never shed.
		cfg.Exec.Policy = "block"
	}
	cfg.Exec.EvictIdle = pipeline.Duration(*v.evict)
	cfg.Sinks.MetricsAddr = *v.metAddr
	cfg.Sinks.TraceOut = *v.traceOut
	return cfg
}

func runCollect(args []string) error {
	fs, v := collectFlags()
	fs.Parse(args) //nolint:errcheck // ExitOnError

	if *v.traceOut != "" && !*v.analyze {
		return fmt.Errorf("-trace-out requires -analyze")
	}
	cfg := v.config()
	if err := cfg.Validate(); err != nil {
		return err
	}
	reg, stopMetrics, err := cmdutil.ServeMetrics("rtclive", cfg.Sinks.MetricsAddr)
	if err != nil {
		return err
	}
	defer stopMetrics()

	col, err := live.Listen(cfg.Source.Listen)
	if err != nil {
		return err
	}
	defer col.Close()
	col.IdleTimeout = cfg.Source.Idle.Std()
	col.Metrics = reg
	fmt.Printf("collecting on %s (idle timeout %v)...\n", col.Addr(), cfg.Source.Idle.Std())

	// The analysis shares the offline pipeline's streaming Analyzer: the
	// call window defaults to the received span, frames are analyzed as
	// they arrive (through a small reorder buffer that undoes UDP
	// reordering on the mirror path), and nothing requires holding the
	// whole capture — unless -out needs the frames for the pcap file.
	runner, err := pipeline.NewRunner(cfg, reg)
	if err != nil {
		return err
	}
	defer runner.Close()
	var sess *pipeline.LiveSession
	if *v.analyze {
		if sess, err = runner.NewLiveSession(); err != nil {
			return err
		}
	}

	received := 0
	if *v.out == "" {
		// Pure streaming: no capture buffer at all. Frames emitted by
		// the reorder buffer are fed to the analyzer in small batches,
		// amortizing the per-feed bookkeeping (each frame is freshly
		// allocated, so batching retains nothing extra).
		feed := func(pkt pcap.Packet) error { return nil }
		if sess != nil {
			feed = sess.Push
		}
		rb := live.NewReorderBuffer(cfg.Source.Reorder, feed)
		received, err = col.Stream(context.Background(), cfg.Source.MaxFrames, rb.Push)
		if err != nil {
			return err
		}
		if err := rb.Flush(); err != nil {
			return err
		}
		if sess != nil {
			if err := sess.Flush(); err != nil {
				return err
			}
		}
	} else {
		frames, err := col.Collect(context.Background(), cfg.Source.MaxFrames)
		if err != nil {
			return err
		}
		received = len(frames)
		// Restore capture order so the pcap file and the analysis see
		// the original stream.
		live.SortByTimestamp(frames)
		f, err := os.Create(*v.out)
		if err != nil {
			return err
		}
		w := pcap.NewWriter(f, pcap.LinkTypeRaw)
		for _, fr := range frames {
			if err := w.WritePacket(fr); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *v.out)
		if sess != nil {
			for _, fr := range frames {
				if err := sess.Push(fr); err != nil {
					return err
				}
			}
			if err := sess.Flush(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("received %d frames (%d decode errors, %d dropped, %d reordered)\n",
		received, col.DecodeErrors, col.Dropped, col.Reordered)
	if received == 0 || sess == nil {
		return runner.FlushTrace(os.Stderr)
	}

	acct := sess.Accounting()
	ca, err := sess.Close()
	if err != nil {
		return err
	}
	if acct.Dropped > 0 {
		fmt.Printf("ingest: %d datagrams dropped under back-pressure (%d analyzed on %d shards)\n",
			acct.Dropped, acct.Analyzed, acct.Shards)
	}
	if err := runner.FlushTrace(os.Stderr); err != nil {
		return err
	}
	if ca.DecodeErrors > 0 {
		fmt.Printf("decode errors: %d undecodable frames in the analysis\n", ca.DecodeErrors)
	}
	if ratio, ok := ca.Stats.VolumeCompliance(); ok {
		fmt.Printf("volume compliance: %.2f%%\n", 100*ratio)
	}
	c, t := ca.Stats.TypeCompliance(dpi.ProtoUnknown)
	fmt.Printf("message types: %d/%d compliant\n", c, t)
	for _, fd := range ca.Findings {
		fmt.Printf("finding: %s: %s\n", fd.Kind, fd.Detail)
	}
	return nil
}

// daemonFlags is the daemon subcommand's surface.
func daemonFlags() (*flag.FlagSet, **string) {
	fs := flag.NewFlagSet("daemon", flag.ExitOnError)
	configPath := cmdutil.ConfigFlag(fs)
	return fs, &configPath
}

// runDaemon runs the always-on compliance service: config file + SIGHUP
// reload + graceful SIGTERM/SIGINT drain. The pipeline.Daemon owns the
// epoch rotation and the /compliance/trend series; this front-end only
// wires signals.
func runDaemon(args []string) error {
	fs, configPath := daemonFlags()
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if **configPath == "" {
		return fmt.Errorf("daemon requires -config")
	}
	d, err := pipeline.NewDaemon(**configPath, os.Stdout)
	if err != nil {
		return err
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case sig := <-sigc:
				switch sig {
				case syscall.SIGHUP:
					fmt.Fprintln(os.Stderr, "rtclive: SIGHUP: reloading config")
					d.Reload()
				default:
					fmt.Fprintf(os.Stderr, "rtclive: %v: draining\n", sig)
					d.Stop()
				}
			case <-done:
				return
			}
		}
	}()
	return d.Run()
}
