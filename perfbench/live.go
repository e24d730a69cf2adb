package main

import (
	"errors"
	"os"
	"runtime"
	"time"

	"github.com/rtc-compliance/rtcc/internal/alert"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	"github.com/rtc-compliance/rtcc/internal/trend"
)

// offeredRate is the open-loop load in frames per second, about half of
// the closed-loop rate the mirror-epochs path sustains on a 2-CPU host.
// It is fixed, so a faster program meets the same load rather than a
// heavier one; each untraced run prints the ratio it measured.
const offeredRate = 100000

// ingestQueueCap is how many datagrams one shard can hold in flight
// under the ingest tier's defaults: 8 queued batches plus one staging
// batch, 64 datagrams each.
const ingestQueueCap = (8 + 1) * 64

// liveShards is the daemon's shard count: one per CPU, at least two so
// the shard router and the merge always run.
func liveShards() int { return max(runtime.NumCPU(), 2) }

// pacer offers frames at a fixed rate (open loop): the step that starts
// at frame n is due at start + n/rate, whatever the pipeline did with
// the steps before it.
type pacer struct {
	start  time.Time
	rate   float64
	pushed int
}

// openLoop is what the generator observed: how late each step ran, and
// every fillEvery steps the share of the shard queues' capacity in
// flight.
type openLoop struct {
	late, fill []float64
	steps      int
}

const fillEvery = 16

// push offers one epoch's frames to sess in 64-frame steps, sleeping
// while a step is early, and returns the due time of the last step.
// obs (nil to skip) records lateness and queue fill; l records one
// pipeline.push span per step.
func (p *pacer) push(sess *pipeline.LiveSession, frames []pcap.Packet, shards int, l *lane, unit string, obs *openLoop) (time.Time, error) {
	var due time.Time
	for off := 0; off < len(frames); off += replayBatch {
		due = p.start.Add(time.Duration(float64(p.pushed) / p.rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if obs != nil {
			obs.late = append(obs.late, float64(time.Since(due))/1e6)
		}
		chunk := frames[off:min(off+replayBatch, len(frames))]
		sp := l.begin("pipeline.push", -1, unit)
		for _, f := range chunk {
			if err := sess.Push(f); err != nil {
				return due, err
			}
		}
		l.end(sp, len(chunk))
		p.pushed += len(chunk)
		if obs != nil {
			if obs.steps++; obs.steps%fillEvery == 0 {
				a := sess.Accounting()
				obs.fill = append(obs.fill, float64(a.Fed-a.Analyzed-a.Dropped)/float64(shards*ingestQueueCap))
			}
		}
	}
	return due, nil
}

// daemonConfig is the compliance daemon's configuration: liveShards
// shards, the given back-pressure policy, QoE on, and one
// compliance_drop alert rule.
func daemonConfig(label, policy string) pipeline.Config {
	drop := 0.2
	return pipeline.Config{
		Source:   pipeline.Source{Kind: pipeline.SourceLive, Listen: "127.0.0.1:0", Label: label},
		Exec:     pipeline.Exec{Shards: liveShards(), Policy: policy},
		Analysis: pipeline.Analysis{QoE: true},
		Alerts: pipeline.AlertsConfig{Rules: map[string]alert.Rule{
			"compliance-drop": {Type: alert.TypeComplianceDrop, Drop: &drop},
		}},
	}
}

// daemon is the daemon's analysis path in-process: the runner that
// opens one live session per epoch, the on-disk trend store, and the
// alert engine.
type daemon struct {
	runner *pipeline.Runner
	store  *trend.Store
	engine *alert.Engine
}

// newDaemon starts the daemon path with the given back-pressure policy
// and an empty trend store at trendPath.
func newDaemon(label, policy, trendPath string) (*daemon, error) {
	cfg := daemonConfig(label, policy)
	runner, err := pipeline.NewRunner(cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(trendPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	store, err := trend.Open(trendPath, 0)
	if err != nil {
		return nil, err
	}
	return &daemon{runner: runner, store: store, engine: alert.NewEngine(cfg.Alerts.RuleList(), nil)}, nil
}

// close releases the runner and flushes and closes the trend store;
// closing twice is harmless.
func (d *daemon) close() error {
	err := d.runner.Close()
	if serr := d.store.Close(); err == nil {
		err = serr
	}
	return err
}

// epoch is one closed epoch.
type epoch struct {
	point  trend.Point
	acct   pipeline.Accounting
	ca     *core.CaptureAnalysis
	events int
}

// closeEpoch runs the daemon's epoch close: drain the session, close
// it, build the trend point, persist it, and evaluate the alert rules.
func (d *daemon) closeEpoch(sess *pipeline.LiveSession, l *lane, unit string) (epoch, error) {
	root := l.begin("bench.epoch_close", -1, unit)
	sp := l.begin("pipeline.flush", root, unit)
	err := sess.Flush()
	l.end(sp, 1)
	if err != nil {
		return epoch{}, err
	}
	acct := sess.Accounting()
	sp = l.begin("pipeline.close", root, unit)
	ca, err := sess.Close()
	l.end(sp, 1)
	if err != nil {
		return epoch{}, err
	}
	sp = l.begin("pipeline.point", root, unit)
	p := pipeline.Point(time.Now().UTC(), "epoch", ca, acct)
	l.end(sp, 1)
	sp = l.begin("trend.append", root, unit)
	err = d.store.Append(p)
	l.end(sp, 1)
	if err != nil {
		return epoch{}, err
	}
	sp = l.begin("alert.observe", root, unit)
	events := d.engine.Observe(p)
	l.end(sp, 1)
	l.end(root, int(acct.Fed))
	return epoch{point: p, acct: acct, ca: ca, events: len(events)}, nil
}
