package bench

import (
	"strings"
	"testing"
	"time"
)

// TestScenarioMatrix pins the shape of the benchmark matrix: every
// serial ingestion mode crossed with every traffic cell, plus the
// shard-scaling curve on the media-heavy cell, unique names
// throughout — media-heavy is the cell the shard-scaling criterion is
// recorded on.
func TestScenarioMatrix(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 9 {
		t.Fatalf("Scenarios() = %d cells, want 9 (2 modes x 3 cells + 3 shard counts)", len(scs))
	}
	seen := map[string]bool{}
	perMode := map[Mode]int{}
	mediaHeavy := 0
	shardCounts := map[int]bool{}
	for _, sc := range scs {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		perMode[sc.Mode]++
		if strings.HasSuffix(sc.Name, "/media-heavy") {
			mediaHeavy++
			if sc.Background {
				t.Errorf("%s: media-heavy cell must disable background traffic", sc.Name)
			}
		}
		if sc.Mode == ModeSharded {
			if !strings.HasSuffix(sc.Name, "/media-heavy") {
				t.Errorf("%s: sharded cells measure the media-heavy load only", sc.Name)
			}
			shardCounts[sc.Shards] = true
		}
	}
	for _, m := range []Mode{ModeFeedBatch, ModeBatch} {
		if perMode[m] != 3 {
			t.Errorf("mode %s has %d cells, want 3", m, perMode[m])
		}
	}
	if mediaHeavy != 5 {
		t.Errorf("media-heavy cells = %d, want one per serial mode plus three shard counts", mediaHeavy)
	}
	for _, n := range []int{1, 2, 4} {
		if !shardCounts[n] {
			t.Errorf("shard-scaling curve missing the %d-shard cell", n)
		}
	}
}

// TestShardedHarnessRuns drives one Measure through the sharded mode:
// the measurement must be coherent and the scenario must analyze the
// same capture as the serial media-heavy cells.
func TestShardedHarnessRuns(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.Mode != ModeSharded || sc.Shards != 2 {
			continue
		}
		p, err := Prepare(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Measure(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Name != sc.Name || res.Packets != p.Packets || res.NsPerOp <= 0 || res.PktsPerSec <= 0 {
			t.Errorf("sharded measurement incoherent: %+v", res)
		}
	}
}

// TestCurrentHost pins the host-metadata record the baseline embeds.
func TestCurrentHost(t *testing.T) {
	h := CurrentHost()
	if h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.OS == "" || h.Arch == "" {
		t.Errorf("CurrentHost() incomplete: %+v", h)
	}
	if !h.Comparable(h) {
		t.Error("host not comparable to itself")
	}
	other := h
	other.NumCPU++
	if h.Comparable(other) {
		t.Error("hosts with different CPU counts considered comparable")
	}
}

// TestHarnessRuns drives one full Measure through each ingestion mode
// on the small relay cell: every mode must analyze the identical
// capture and report a coherent measurement.
func TestHarnessRuns(t *testing.T) {
	packets := map[Mode]int{}
	for _, sc := range Scenarios() {
		if !strings.HasSuffix(sc.Name, "/relay") {
			continue
		}
		p, err := Prepare(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if p.Packets == 0 || p.Bytes == 0 {
			t.Fatalf("%s: empty capture (%d packets, %d bytes)", sc.Name, p.Packets, p.Bytes)
		}
		packets[sc.Mode] = p.Packets
		res, err := Measure(p, 2, 0)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.Name != sc.Name || res.Packets != p.Packets {
			t.Errorf("%s: result identity %q/%d, want %q/%d", sc.Name, res.Name, res.Packets, sc.Name, p.Packets)
		}
		if res.NsPerOp <= 0 || res.PktsPerSec <= 0 {
			t.Errorf("%s: non-positive measurement %+v", sc.Name, res)
		}
	}
	if len(packets) != 2 || packets[ModeFeedBatch] != packets[ModeBatch] {
		t.Errorf("modes saw different captures: %v", packets)
	}
}

// TestMeasureBestKeepsFastest checks the noise-rejection helper
// returns a result and that repetitions don't change the workload.
func TestMeasureBestKeepsFastest(t *testing.T) {
	sc := Scenarios()[0]
	p, err := Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureBest(p, 2, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != sc.Name || res.NsPerOp <= 0 {
		t.Errorf("MeasureBest returned %+v for %s", res, sc.Name)
	}
}
