package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsShort runs every declared workload at a short size,
// untraced and traced, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsShort(t *testing.T) {
	bf := loadBenchmark(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			name := wl.Name + "/untraced"
			if traced {
				name = wl.Name + "/traced"
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: wl.Name, seed: 3, seconds: 0.2, traced: traced, dir: t.TempDir(), small: true}
				res, err := runOne(o, bufio.NewWriter(io.Discard))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var got, missing []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if u, ok := want[k]; !ok || u != m.Unit {
						t.Errorf("metric %s (%s) is not declared with that unit", k, m.Unit)
					}
				}
				for k := range want {
					if _, ok := res.Metrics[k]; !ok {
						missing = append(missing, k)
					}
				}
				sort.Strings(missing)
				if len(missing) > 0 {
					t.Errorf("missing metrics %v (got %v)", missing, got)
				}
			})
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestLedgerSelfTime checks self time subtracts child spans and that a
// replayed container keeps only what its replayed layers do not explain.
func TestLedgerSelfTime(t *testing.T) {
	l := &lane{spans: []span{
		{Name: "bench.capture", Parent: -1, Start: 0, End: 100},
		{Name: "core.feed", Parent: 0, Start: 10, End: 30},
		{Name: "core.close", Parent: 0, Start: 30, End: 90},
	}}
	lg := newLedger(l)
	if got := lg.get("bench.capture").Self; got != 20 {
		t.Errorf("root self = %d, want 20", got)
	}
	if got := lg.unattributed(); got != 0.2 {
		t.Errorf("unattributed = %v, want 0.2", got)
	}
	r := &lane{spans: []span{
		{Name: "dpi.finalize", Parent: -1, Start: 0, End: 45},
		{Name: "compliance.check", Parent: -1, Start: 45, End: 50},
	}}
	per := perUnit(lg, 1, newLedger(r), 1)
	if per["core.close"] != 10 || per["dpi.finalize"] != 45 {
		t.Errorf("per-unit close=%v dpi=%v, want 10 and 45", per["core.close"], per["dpi.finalize"])
	}
	if name, _ := topLayer(per); name != "dpi.finalize" {
		t.Errorf("top layer %s, want dpi.finalize", name)
	}
}
