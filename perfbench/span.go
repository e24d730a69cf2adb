package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one call the benchmark made into a module's public function:
// name, start, end, the span that caused it, and the unit (capture,
// epoch, or matrix) the spans of one piece of work share. Count is the
// work the call processed (frames, datagrams, messages); Allocs and
// Bytes are the heap allocations made between the span's start and
// end, read in the same window as its time.
type span struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// allocSamples are the runtime counters read at each span boundary.
// The runtime books allocations when it hands a processor a fresh span
// of slots, so a window shorter than a few hundred allocations reads
// coarsely; totals over a whole layer are accurate. The counters are
// process-wide: allocations other goroutines make inside the window
// count too.
var allocSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
}

// lane records the spans of one goroutine. A nil lane records nothing,
// so untraced code paths call the same methods at no cost.
type lane struct {
	base    time.Time
	spans   []span
	samples []metrics.Sample
}

func newLane(base time.Time) *lane {
	l := &lane{base: base, samples: make([]metrics.Sample, len(allocSamples))}
	for i, name := range allocSamples {
		l.samples[i].Name = name
	}
	return l
}

func (l *lane) allocs() (objects, bytes uint64) {
	metrics.Read(l.samples)
	return l.samples[0].Value.Uint64() + l.samples[1].Value.Uint64(), l.samples[2].Value.Uint64()
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (l *lane) begin(name string, parent int, unit string) int {
	if l == nil {
		return -1
	}
	objs, bytes := l.allocs()
	l.spans = append(l.spans, span{
		Name: name, Unit: unit, ID: len(l.spans), Parent: parent,
		Start: int64(time.Since(l.base)), Allocs: objs, Bytes: bytes,
	})
	return len(l.spans) - 1
}

// end closes span id, recording the work it processed.
func (l *lane) end(id int, count int) {
	if l == nil {
		return
	}
	s := &l.spans[id]
	s.End = int64(time.Since(l.base))
	objs, bytes := l.allocs()
	s.Allocs, s.Bytes = objs-s.Allocs, bytes-s.Bytes
	s.Count = int64(count)
}

// layerStat is one layer's share of a traced run: self time is each
// span's duration minus the part its child spans cover.
type layerStat struct {
	Calls  int64
	Count  int64
	Total  int64
	Self   int64
	Allocs uint64
	Bytes  uint64
}

// ledger folds spans into per-layer statistics. Roots whose name
// starts with "bench." are the benchmark's own units of work; their
// self time is the part of a unit no layer span covers.
type ledger struct {
	layers map[string]*layerStat
	// rootTotal and rootSelf sum the duration and uncovered time of the
	// benchmark's unit roots.
	rootTotal, rootSelf int64
}

func newLedger(lanes ...*lane) *ledger {
	lg := &ledger{layers: make(map[string]*layerStat)}
	for _, l := range lanes {
		if l == nil {
			continue
		}
		self := make([]int64, len(l.spans))
		for i, s := range l.spans {
			self[i] += s.End - s.Start
			if s.Parent >= 0 {
				self[s.Parent] -= s.End - s.Start
			}
		}
		for i, s := range l.spans {
			st := lg.layers[s.Name]
			if st == nil {
				st = &layerStat{}
				lg.layers[s.Name] = st
			}
			st.Calls++
			st.Count += s.Count
			st.Total += s.End - s.Start
			st.Self += self[i]
			st.Allocs += s.Allocs
			st.Bytes += s.Bytes
			if s.Parent < 0 && strings.HasPrefix(s.Name, "bench.") {
				lg.rootTotal += s.End - s.Start
				lg.rootSelf += self[i]
			}
		}
	}
	return lg
}

// get returns the layer's statistics (zero when the workload never
// called it).
func (lg *ledger) get(name string) layerStat {
	if st := lg.layers[name]; st != nil {
		return *st
	}
	return layerStat{}
}

// perCount returns the layer's self time per item of work in ns.
func (lg *ledger) perCount(name string) float64 {
	st := lg.get(name)
	if st.Count == 0 {
		return 0
	}
	return float64(st.Self) / float64(st.Count)
}

// perCall returns the layer's mean wall time per call in ns.
func (lg *ledger) perCall(name string) float64 {
	st := lg.get(name)
	if st.Calls == 0 {
		return 0
	}
	return float64(st.Total) / float64(st.Calls)
}

// unattributed is the share of unit time no layer span covers.
func (lg *ledger) unattributed() float64 {
	if lg.rootTotal == 0 {
		return 0
	}
	return float64(lg.rootSelf) / float64(lg.rootTotal)
}

// inner names, for each layer whose inside the traced run replays, the
// replayed layers that ran inside it. The replays are separate calls on
// the same inputs, not children in the span tree, so a container's
// share of the work is its time minus what its replayed layers took.
var inner = map[string][]string{
	"core.feed":       {"layers.decode", "flow.add"},
	"core.close":      {"filterpipe.run", "dpi.finalize", "compliance.check", "qoe.observe"},
	"pipeline.close":  {"ingest.merge"},
	"ingest.merge":    {"filterpipe.run", "dpi.finalize", "compliance.check", "qoe.observe"},
	"core.run_matrix": {"trace.generate", "core.feed", "core.close"},
}

// perUnit merges the traced units' ledger and the replay's ledger into
// self time per unit of work in ns: nUnits counts the traced units, and
// replayUnits how many units' worth of input the replay covered.
// Containers keep only the time their replayed layers do not explain
// (never below zero).
func perUnit(units *ledger, nUnits int, replay *ledger, replayUnits int) map[string]float64 {
	self := make(map[string]float64)
	total := make(map[string]float64)
	add := func(lg *ledger, n int) {
		if n == 0 {
			return
		}
		for name, st := range lg.layers {
			if strings.HasPrefix(name, "bench.") {
				continue
			}
			self[name] += float64(st.Self) / float64(n)
			total[name] += float64(st.Total) / float64(n)
		}
	}
	add(units, nUnits)
	add(replay, replayUnits)
	for name, children := range inner {
		if _, ok := self[name]; !ok {
			continue
		}
		rest := total[name]
		for _, c := range children {
			rest -= total[c]
		}
		self[name] = max(rest, 0)
	}
	return self
}

// topLayer returns the layer with the largest per-unit self time.
func topLayer(per map[string]float64) (string, float64) {
	best, bestNs := "", -1.0
	for name, ns := range per {
		if ns > bestNs || (ns == bestNs && name < best) {
			best, bestNs = name, ns
		}
	}
	return best, bestNs
}

// printLedger writes the per-unit ledger, largest self time first,
// with each layer's calls, work count, and allocations.
func printLedger(w *bufio.Writer, per map[string]float64, lgs ...*ledger) {
	names := make([]string, 0, len(per))
	for n := range per {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if per[names[i]] != per[names[j]] {
			return per[names[i]] > per[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "ledger: %-24s %14s %10s %12s %12s\n", "layer", "self_ms/unit", "calls", "count", "allocs")
	for _, n := range names {
		var st layerStat
		for _, lg := range lgs {
			s := lg.get(n)
			st.Calls += s.Calls
			st.Count += s.Count
			st.Allocs += s.Allocs
		}
		fmt.Fprintf(w, "ledger: %-24s %14.3f %10d %12d %12d\n", n, per[n]/1e6, st.Calls, st.Count, st.Allocs)
	}
}

// writeSpans dumps every lane's spans as JSON lines; span and parent
// ids are local to their lane.
func writeSpans(path string, lanes ...*lane) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for li, l := range lanes {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			rec := struct {
				Lane int `json:"lane"`
				span
			}{li, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
